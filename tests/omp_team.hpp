/**
 * @file
 * The OpenMP team size for thread-count invariance tests. Guard sets
 * the team size for its scope and restores the previous one when the
 * scope exits, also when a failed assertion or an exception leaves it
 * early, so no test hands a changed team size to the next.
 * expectSameBits() runs a computation at each of sizes() under a Guard
 * and compares its values bit for bit with a team of one. Without
 * OpenMP, Guard does nothing and sizes() lists only 1.
 */

#ifndef EFTVQA_TESTS_OMP_TEAM_HPP
#define EFTVQA_TESTS_OMP_TEAM_HPP

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace eftvqa::omp_team {

/** The team sizes an invariance check compares: 1 (the serial
 *  reference), 2 and 4. */
inline std::vector<int>
sizes()
{
#ifdef _OPENMP
    return {1, 2, 4};
#else
    return {1};
#endif
}

/** omp_set_num_threads(@p threads) until the end of the scope. */
class Guard
{
  public:
    explicit Guard(int threads)
    {
#ifdef _OPENMP
        saved_ = omp_get_max_threads();
        omp_set_num_threads(threads);
#else
        (void)threads;
#endif
    }

    ~Guard()
    {
#ifdef _OPENMP
        omp_set_num_threads(saved_);
#endif
    }

    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

  private:
    int saved_ = 1;
};

/** @p run() at a team of one, then at each of sizes(): every value
 *  must have the bits of the serial run, which is returned. */
template <class Run>
std::vector<double>
expectSameBits(Run run)
{
    const std::vector<double> serial = [&] {
        Guard team(1);
        return run();
    }();
    for (const int threads : sizes()) {
        Guard team(threads);
        const std::vector<double> got = run();
        EXPECT_EQ(got.size(), serial.size()) << threads << " threads";
        for (size_t k = 0; k < got.size() && k < serial.size(); ++k)
            EXPECT_EQ(std::memcmp(&got[k], &serial[k], sizeof(double)), 0)
                << "value " << k << " at " << threads << " threads: "
                << got[k] << " != " << serial[k];
    }
    return serial;
}

} // namespace eftvqa::omp_team

#endif // EFTVQA_TESTS_OMP_TEAM_HPP
