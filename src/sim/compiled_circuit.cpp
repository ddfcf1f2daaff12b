#include "sim/compiled_circuit.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace eftvqa {

namespace {

using Cd = std::complex<double>;

/** Widest diagonal run that still gets a phase table (2^16 entries,
 *  1 MiB — larger runs fall back to the per-qubit factor product). */
constexpr size_t kMaxDiagTableQubits = 16;

bool
isIdentityRows(const std::vector<uint64_t> &rows)
{
    for (size_t b = 0; b < rows.size(); ++b)
        if (rows[b] != (uint64_t{1} << b))
            return false;
    return true;
}

/**
 * Mutable op under construction. Only the fields of the eventual kind
 * are meaningful; `dead` marks ops absorbed into a later fusion.
 */
struct OpBuilder
{
    CompiledOpKind kind;
    bool dead = false;
    uint32_t q0 = 0;
    uint32_t q1 = 0;
    Mat2 m1{};
    Mat4 m2{};
    // DiagPhase accumulation: per-qubit (|0>, |1>) eigenvalue products
    // and the parity set of CZ pairs (a CZ run of even multiplicity on
    // a pair cancels structurally).
    std::map<uint32_t, std::pair<Cd, Cd>> diag1;
    std::set<std::pair<uint32_t, uint32_t>> czs;
    // Gf2Perm accumulation: out bit b = parity(in & rows[b]) ^ flip_b.
    std::vector<uint64_t> rows;
    uint64_t flips = 0;
};

void
accumulateDiag1q(OpBuilder &op, const Gate &g)
{
    const Mat2 u = gateMatrix1q(g.type, g.angle);
    auto it = op.diag1.try_emplace(g.q0, Cd{1.0}, Cd{1.0}).first;
    it->second.first *= u[0];
    it->second.second *= u[3];
}

void
accumulateCz(OpBuilder &op, uint32_t a, uint32_t b)
{
    const auto key = std::minmax(a, b);
    const auto it = op.czs.find(key);
    if (it != op.czs.end())
        op.czs.erase(it);
    else
        op.czs.insert(key);
}

void
accumulatePerm(OpBuilder &op, const Gate &g)
{
    switch (g.type) {
      case GateType::X:
        op.flips ^= uint64_t{1} << g.q0;
        return;
      case GateType::CX:
        // target' = target ^ control, applied after the existing map.
        op.rows[g.q1] ^= op.rows[g.q0];
        if ((op.flips >> g.q0) & 1)
            op.flips ^= uint64_t{1} << g.q1;
        return;
      case GateType::Swap:
        std::swap(op.rows[g.q0], op.rows[g.q1]);
        {
            const uint64_t ma = uint64_t{1} << g.q0;
            const uint64_t mb = uint64_t{1} << g.q1;
            const bool fa = op.flips & ma;
            const bool fb = op.flips & mb;
            if (fa != fb)
                op.flips ^= ma | mb;
        }
        return;
      default:
        throw std::logic_error("accumulatePerm: not a permutation gate");
    }
}

/** Invert the GF(2) matrix given as per-output-bit input masks. */
std::vector<uint64_t>
invertGf2(std::vector<uint64_t> a)
{
    const size_t n = a.size();
    std::vector<uint64_t> inv(n);
    for (size_t b = 0; b < n; ++b)
        inv[b] = uint64_t{1} << b;
    for (size_t col = 0; col < n; ++col) {
        const uint64_t colmask = uint64_t{1} << col;
        size_t pivot = col;
        while (pivot < n && !(a[pivot] & colmask))
            ++pivot;
        if (pivot == n)
            throw std::logic_error("invertGf2: singular matrix");
        std::swap(a[col], a[pivot]);
        std::swap(inv[col], inv[pivot]);
        for (size_t r = 0; r < n; ++r) {
            if (r != col && (a[r] & colmask)) {
                a[r] ^= a[col];
                inv[r] ^= inv[col];
            }
        }
    }
    return inv;
}

DiagPhaseOp
finalizeDiag(const OpBuilder &op)
{
    DiagPhaseOp out;
    std::set<uint32_t> participating;
    // Qubits whose |0> and |1> eigenvalues ended up equal contribute a
    // global scalar only (e.g. Z*Z, or a pure-phase residue).
    std::map<uint32_t, std::pair<Cd, Cd>> live;
    for (const auto &[q, p] : op.diag1) {
        if (p.second == p.first) {
            out.global *= p.first;
        } else {
            live.emplace(q, p);
            participating.insert(q);
        }
    }
    for (const auto &[a, b] : op.czs) {
        participating.insert(a);
        participating.insert(b);
        out.cz_masks.push_back((uint64_t{1} << a) | (uint64_t{1} << b));
    }
    out.qubits.assign(participating.begin(), participating.end());

    for (const auto &[q, p] : live)
        out.factors.emplace_back(q, p.second / p.first);
    Cd global_with_p0 = out.global;
    for (const auto &[q, p] : live)
        global_with_p0 *= p.first;

    const size_t k = out.qubits.size();
    out.contiguous = true;
    for (size_t j = 0; j < k; ++j)
        if (out.qubits[j] != j)
            out.contiguous = false;

    if (k <= kMaxDiagTableQubits) {
        // Exact per-pattern products of the |0>/|1> eigenvalues (no
        // ratio division), matching the gate-by-gate path as closely
        // as float products allow.
        out.table.resize(size_t{1} << k);
        for (size_t pattern = 0; pattern < out.table.size(); ++pattern) {
            uint64_t index = 0;
            for (size_t j = 0; j < k; ++j)
                if ((pattern >> j) & 1)
                    index |= uint64_t{1} << out.qubits[j];
            Cd phase = out.global;
            for (const auto &[q, p] : live)
                phase *= ((index >> q) & 1) ? p.second : p.first;
            for (const uint64_t m : out.cz_masks)
                if ((index & m) == m)
                    phase = -phase;
            out.table[pattern] = phase;
        }
    }
    // The factor path folds every |0> eigenvalue into the constant.
    out.global = global_with_p0;
    return out;
}

Gf2PermOp
finalizePerm(const OpBuilder &op)
{
    Gf2PermOp out;
    out.rows = op.rows;
    out.flips = op.flips;
    const size_t n = out.rows.size();

    if (isIdentityRows(out.rows)) {
        out.cls = Gf2PermClass::XorMask;
        return out;
    }
    // Single CX / single Swap: every row but one (two) is identity.
    if (out.flips == 0) {
        std::vector<size_t> off;
        for (size_t b = 0; b < n && off.size() <= 2; ++b)
            if (out.rows[b] != (uint64_t{1} << b))
                off.push_back(b);
        if (off.size() == 1) {
            const size_t t = off[0];
            const uint64_t extra = out.rows[t] ^ (uint64_t{1} << t);
            if (out.rows[t] & (uint64_t{1} << t) &&
                std::popcount(extra) == 1) {
                out.cls = Gf2PermClass::SingleCX;
                out.q0 = static_cast<uint32_t>(std::countr_zero(extra));
                out.q1 = static_cast<uint32_t>(t);
                return out;
            }
        } else if (off.size() == 2) {
            const size_t a = off[0], b = off[1];
            if (out.rows[a] == (uint64_t{1} << b) &&
                out.rows[b] == (uint64_t{1} << a)) {
                out.cls = Gf2PermClass::SingleSwap;
                out.q0 = static_cast<uint32_t>(a);
                out.q1 = static_cast<uint32_t>(b);
                return out;
            }
        }
    }
    out.cls = Gf2PermClass::General;
    out.inv_rows = invertGf2(out.rows);
    return out;
}

} // namespace

std::complex<double>
DiagPhaseOp::phaseAt(uint64_t i) const
{
    if (hasTable()) {
        uint64_t idx = 0;
        for (size_t j = 0; j < qubits.size(); ++j)
            idx |= ((i >> qubits[j]) & 1) << j;
        return table[idx];
    }
    Cd phase = global;
    for (const auto &[q, r] : factors)
        if ((i >> q) & 1)
            phase *= r;
    for (const uint64_t m : cz_masks)
        if ((i & m) == m)
            phase = -phase;
    return phase;
}

uint64_t
Gf2PermOp::apply(uint64_t i) const
{
    uint64_t y = 0;
    for (size_t b = 0; b < rows.size(); ++b)
        y |= static_cast<uint64_t>(std::popcount(i & rows[b]) & 1) << b;
    return y ^ flips;
}

uint64_t
Gf2PermOp::applyInverse(uint64_t y) const
{
    const uint64_t z = y ^ flips;
    if (inv_rows.empty()) {
        // Non-General classes are involutions of simple structure;
        // recompute through the forward rows (identity-like).
        uint64_t x = 0;
        for (size_t b = 0; b < rows.size(); ++b)
            x |= static_cast<uint64_t>(std::popcount(z & rows[b]) & 1) << b;
        return x;
    }
    uint64_t x = 0;
    for (size_t b = 0; b < inv_rows.size(); ++b)
        x |= static_cast<uint64_t>(std::popcount(z & inv_rows[b]) & 1) << b;
    return x;
}

Mat4
matmul4(const Mat4 &a, const Mat4 &b)
{
    Mat4 out{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
            Cd acc = 0.0;
            for (int k = 0; k < 4; ++k)
                acc += a[r * 4 + k] * b[k * 4 + c];
            out[r * 4 + c] = acc;
        }
    return out;
}

Mat4
kron2q(const Mat2 &ua, const Mat2 &ub)
{
    Mat4 out{};
    for (int ia = 0; ia < 2; ++ia)
        for (int ib = 0; ib < 2; ++ib)
            for (int ja = 0; ja < 2; ++ja)
                for (int jb = 0; jb < 2; ++jb)
                    out[((ia << 1) | ib) * 4 + ((ja << 1) | jb)] =
                        ua[ia * 2 + ja] * ub[ib * 2 + jb];
    return out;
}

Mat4
gateMatrix2q(const Gate &g, uint32_t qa, uint32_t qb)
{
    if (!g.isTwoQubit())
        throw std::invalid_argument("gateMatrix2q: not a two-qubit gate");
    if ((g.q0 != qa && g.q0 != qb) || (g.q1 != qa && g.q1 != qb))
        throw std::invalid_argument("gateMatrix2q: qubit set mismatch");
    Mat4 m{};
    for (int in = 0; in < 4; ++in) {
        const int bit_qa = (in >> 1) & 1;
        const int bit_qb = in & 1;
        const int v0 = (g.q0 == qa) ? bit_qa : bit_qb;
        const int v1 = (g.q1 == qa) ? bit_qa : bit_qb;
        int w0 = v0, w1 = v1;
        Cd amp = 1.0;
        switch (g.type) {
          case GateType::CX:
            w1 = v1 ^ v0;
            break;
          case GateType::CZ:
            if (v0 && v1)
                amp = -1.0;
            break;
          case GateType::Swap:
            std::swap(w0, w1);
            break;
          default:
            throw std::invalid_argument("gateMatrix2q: unsupported gate");
        }
        const int out_qa = (g.q0 == qa) ? w0 : w1;
        const int out_qb = (g.q0 == qa) ? w1 : w0;
        m[((out_qa << 1) | out_qb) * 4 + in] = amp;
    }
    return m;
}

CompiledCircuit::CompiledCircuit(const Circuit &circuit)
    : source_(circuit)
{
    const size_t n = circuit.nQubits();
    if (n > 64)
        throw std::invalid_argument(
            "CompiledCircuit: registers wider than 64 qubits are not "
            "compilable (requested " +
            std::to_string(n) + " qubits)");

    std::vector<OpBuilder> build;
    // Per-qubit program-order trackers: last op touching q, and last
    // *non-diagonal* op touching q (diagonal gates may commute back
    // past diagonal ops, nothing else may).
    std::vector<int64_t> last_op(n, -1);
    std::vector<int64_t> last_nondiag(n, -1);
    int64_t current_diag = -1;
    int64_t current_perm = -1;

    const auto touch = [&](uint32_t q, int64_t idx, bool diagonal) {
        last_op[q] = idx;
        if (!diagonal)
            last_nondiag[q] = idx;
    };

    // True when ops[j] is a live fused-matrix op that a 1q gate on q
    // can left-multiply into.
    const auto matrixMergeable = [&](int64_t j, uint32_t q) {
        if (j < 0 || build[static_cast<size_t>(j)].dead)
            return false;
        const OpBuilder &op = build[static_cast<size_t>(j)];
        if (op.kind == CompiledOpKind::Unitary1q)
            return op.q0 == q;
        if (op.kind == CompiledOpKind::Unitary2q)
            return op.q0 == q || op.q1 == q;
        return false;
    };

    const auto mergeMatrix1q = [&](int64_t j, uint32_t q, const Mat2 &u) {
        OpBuilder &op = build[static_cast<size_t>(j)];
        if (op.kind == CompiledOpKind::Unitary1q) {
            op.m1 = matmul(u, op.m1);
        } else if (q == op.q0) {
            op.m2 = matmul4(kron2q(u, gateMatrix1q(GateType::I)), op.m2);
        } else {
            op.m2 = matmul4(kron2q(gateMatrix1q(GateType::I), u), op.m2);
        }
    };

    // Absorb a trailing 1q op on q into a 4x4 being formed, if one is
    // pending; returns its matrix (identity otherwise).
    const auto takeTrailing1q = [&](uint32_t q) -> Mat2 {
        const int64_t j = last_op[q];
        if (j >= 0 && !build[static_cast<size_t>(j)].dead &&
            build[static_cast<size_t>(j)].kind ==
                CompiledOpKind::Unitary1q &&
            build[static_cast<size_t>(j)].q0 == q) {
            build[static_cast<size_t>(j)].dead = true;
            return build[static_cast<size_t>(j)].m1;
        }
        return gateMatrix1q(GateType::I);
    };

    const auto hasTrailing1q = [&](uint32_t q) {
        const int64_t j = last_op[q];
        return j >= 0 && !build[static_cast<size_t>(j)].dead &&
               build[static_cast<size_t>(j)].kind ==
                   CompiledOpKind::Unitary1q &&
               build[static_cast<size_t>(j)].q0 == q;
    };

    // A fused 4x4 from scratch is only a win when it fully captures
    // the pair's pending state: every qubit either fresh or carrying
    // an absorbable 1q op, and at least one actually absorbable.
    // Otherwise a 2q gate is cheaper in the permutation / diagonal
    // stream (where later gates keep folding into the same pass) than
    // as a dense 4x4 kernel.
    const auto fullyAbsorbable = [&](uint32_t a, uint32_t b) {
        const bool ta = hasTrailing1q(a);
        const bool tb = hasTrailing1q(b);
        return (ta || tb) && (ta || last_op[a] < 0) &&
               (tb || last_op[b] < 0);
    };

    // When a non-diagonal 1q gate lands on a qubit whose latest op is
    // the pending DiagPhase, pull that qubit's 1q-diagonal factor out
    // of the sweep and pre-multiply it into the new 2x2 (everything
    // inside a DiagPhase commutes, and nothing after it touches q).
    // This is what fuses an Rz layer followed by an Rx layer into one
    // 2x2 per qubit instead of a sweep plus a separate op.
    const auto extractDiagFactor = [&](uint32_t q) -> Mat2 {
        const int64_t j = last_op[q];
        if (j >= 0 && !build[static_cast<size_t>(j)].dead &&
            build[static_cast<size_t>(j)].kind ==
                CompiledOpKind::DiagPhase) {
            OpBuilder &op = build[static_cast<size_t>(j)];
            const auto it = op.diag1.find(q);
            if (it != op.diag1.end()) {
                const Mat2 d = {it->second.first, 0.0, 0.0,
                                it->second.second};
                op.diag1.erase(it);
                return d;
            }
        }
        return gateMatrix1q(GateType::I);
    };

    const auto newOp = [&](CompiledOpKind kind) -> int64_t {
        OpBuilder op;
        op.kind = kind;
        if (kind == CompiledOpKind::Gf2Perm) {
            op.rows.resize(n);
            for (size_t b = 0; b < n; ++b)
                op.rows[b] = uint64_t{1} << b;
        }
        build.push_back(std::move(op));
        return static_cast<int64_t>(build.size()) - 1;
    };

    for (const Gate &g : circuit.gates()) {
        if (g.isParameterized())
            throw std::invalid_argument(
                "CompiledCircuit: unbound parameter");
        if (g.type == GateType::I)
            continue;

        if (g.type == GateType::Measure || g.type == GateType::Reset) {
            const int64_t idx = newOp(g.type == GateType::Measure
                                          ? CompiledOpKind::Measure
                                          : CompiledOpKind::Reset);
            build[static_cast<size_t>(idx)].q0 = g.q0;
            touch(g.q0, idx, false);
            continue;
        }

        if (g.type == GateType::X) {
            if (matrixMergeable(last_op[g.q0], g.q0)) {
                mergeMatrix1q(last_op[g.q0], g.q0, gateMatrix1q(g.type));
            } else if (current_perm >= 0 && current_perm >= last_op[g.q0]) {
                accumulatePerm(build[static_cast<size_t>(current_perm)], g);
                touch(g.q0, current_perm, false);
            } else {
                current_perm = newOp(CompiledOpKind::Gf2Perm);
                accumulatePerm(build[static_cast<size_t>(current_perm)], g);
                touch(g.q0, current_perm, false);
            }
            continue;
        }

        if (g.type == GateType::CX || g.type == GateType::Swap) {
            const int64_t ja = last_op[g.q0];
            const int64_t jb = last_op[g.q1];
            if (ja >= 0 && ja == jb &&
                !build[static_cast<size_t>(ja)].dead &&
                build[static_cast<size_t>(ja)].kind ==
                    CompiledOpKind::Unitary2q &&
                ((build[static_cast<size_t>(ja)].q0 == g.q0 &&
                  build[static_cast<size_t>(ja)].q1 == g.q1) ||
                 (build[static_cast<size_t>(ja)].q0 == g.q1 &&
                  build[static_cast<size_t>(ja)].q1 == g.q0))) {
                OpBuilder &op = build[static_cast<size_t>(ja)];
                op.m2 = matmul4(gateMatrix2q(g, op.q0, op.q1), op.m2);
            } else if (current_perm >= 0 && current_perm >= ja &&
                       current_perm >= jb) {
                accumulatePerm(build[static_cast<size_t>(current_perm)], g);
                touch(g.q0, current_perm, false);
                touch(g.q1, current_perm, false);
            } else if (fullyAbsorbable(g.q0, g.q1)) {
                const Mat2 ua = takeTrailing1q(g.q0);
                const Mat2 ub = takeTrailing1q(g.q1);
                const int64_t idx = newOp(CompiledOpKind::Unitary2q);
                OpBuilder &op = build[static_cast<size_t>(idx)];
                op.q0 = g.q0;
                op.q1 = g.q1;
                op.m2 = matmul4(gateMatrix2q(g, g.q0, g.q1),
                                kron2q(ua, ub));
                touch(g.q0, idx, false);
                touch(g.q1, idx, false);
            } else {
                current_perm = newOp(CompiledOpKind::Gf2Perm);
                accumulatePerm(build[static_cast<size_t>(current_perm)], g);
                touch(g.q0, current_perm, false);
                touch(g.q1, current_perm, false);
            }
            continue;
        }

        if (g.type == GateType::CZ) {
            const int64_t ja = last_op[g.q0];
            const int64_t jb = last_op[g.q1];
            if (ja >= 0 && ja == jb &&
                !build[static_cast<size_t>(ja)].dead &&
                build[static_cast<size_t>(ja)].kind ==
                    CompiledOpKind::Unitary2q &&
                ((build[static_cast<size_t>(ja)].q0 == g.q0 &&
                  build[static_cast<size_t>(ja)].q1 == g.q1) ||
                 (build[static_cast<size_t>(ja)].q0 == g.q1 &&
                  build[static_cast<size_t>(ja)].q1 == g.q0))) {
                OpBuilder &op = build[static_cast<size_t>(ja)];
                op.m2 = matmul4(gateMatrix2q(g, op.q0, op.q1), op.m2);
            } else if (current_diag >= 0 &&
                       current_diag > last_nondiag[g.q0] &&
                       current_diag > last_nondiag[g.q1]) {
                accumulateCz(build[static_cast<size_t>(current_diag)],
                             g.q0, g.q1);
                touch(g.q0, current_diag, true);
                touch(g.q1, current_diag, true);
            } else if (fullyAbsorbable(g.q0, g.q1)) {
                const Mat2 ua = takeTrailing1q(g.q0);
                const Mat2 ub = takeTrailing1q(g.q1);
                const int64_t idx = newOp(CompiledOpKind::Unitary2q);
                OpBuilder &op = build[static_cast<size_t>(idx)];
                op.q0 = g.q0;
                op.q1 = g.q1;
                op.m2 = matmul4(gateMatrix2q(g, g.q0, g.q1),
                                kron2q(ua, ub));
                touch(g.q0, idx, false);
                touch(g.q1, idx, false);
            } else {
                current_diag = newOp(CompiledOpKind::DiagPhase);
                accumulateCz(build[static_cast<size_t>(current_diag)],
                             g.q0, g.q1);
                touch(g.q0, current_diag, true);
                touch(g.q1, current_diag, true);
            }
            continue;
        }

        if (isDiagonalType(g.type)) {
            // One-qubit diagonal (Z/S/Sdg/T/Tdg/bound Rz).
            if (matrixMergeable(last_op[g.q0], g.q0)) {
                mergeMatrix1q(last_op[g.q0], g.q0,
                              gateMatrix1q(g.type, g.angle));
            } else if (current_diag >= 0 &&
                       current_diag > last_nondiag[g.q0]) {
                accumulateDiag1q(build[static_cast<size_t>(current_diag)],
                                 g);
                touch(g.q0, current_diag, true);
            } else {
                current_diag = newOp(CompiledOpKind::DiagPhase);
                accumulateDiag1q(build[static_cast<size_t>(current_diag)],
                                 g);
                touch(g.q0, current_diag, true);
            }
            continue;
        }

        // Generic non-diagonal one-qubit unitary (H, Y, Rx, Ry).
        if (matrixMergeable(last_op[g.q0], g.q0)) {
            mergeMatrix1q(last_op[g.q0], g.q0,
                          gateMatrix1q(g.type, g.angle));
        } else {
            const Mat2 pending_diag = extractDiagFactor(g.q0);
            const int64_t idx = newOp(CompiledOpKind::Unitary1q);
            OpBuilder &op = build[static_cast<size_t>(idx)];
            op.q0 = g.q0;
            op.m1 = matmul(gateMatrix1q(g.type, g.angle), pending_diag);
            touch(g.q0, idx, false);
        }
    }

    // Finalize: drop dead / structurally-identity ops and materialize
    // payloads into the side tables.
    for (const OpBuilder &op : build) {
        if (op.dead)
            continue;
        CompiledOp out;
        out.kind = op.kind;
        out.q0 = op.q0;
        out.q1 = op.q1;
        switch (op.kind) {
          case CompiledOpKind::Unitary1q:
            out.payload = static_cast<uint32_t>(mats1_.size());
            mats1_.push_back(op.m1);
            break;
          case CompiledOpKind::Unitary2q:
            out.payload = static_cast<uint32_t>(mats2_.size());
            mats2_.push_back(op.m2);
            break;
          case CompiledOpKind::DiagPhase: {
            DiagPhaseOp d = finalizeDiag(op);
            if (d.qubits.empty() && d.global == Cd{1.0, 0.0})
                continue; // cancelled to the identity
            out.payload = static_cast<uint32_t>(diags_.size());
            diags_.push_back(std::move(d));
            break;
          }
          case CompiledOpKind::Gf2Perm: {
            if (isIdentityRows(op.rows) && op.flips == 0)
                continue; // cancelled to the identity
            Gf2PermOp p = finalizePerm(op);
            out.q0 = p.q0;
            out.q1 = p.q1;
            out.payload = static_cast<uint32_t>(perms_.size());
            perms_.push_back(std::move(p));
            break;
          }
          case CompiledOpKind::Measure:
          case CompiledOpKind::Reset:
            break;
        }
        ops_.push_back(out);
    }
}

size_t
CompiledCircuit::countKind(CompiledOpKind kind) const
{
    size_t count = 0;
    for (const auto &op : ops_)
        if (op.kind == kind)
            ++count;
    return count;
}

} // namespace eftvqa
