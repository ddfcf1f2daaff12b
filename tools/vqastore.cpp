/**
 * @file
 * vqastore — sweep-store maintenance CLI.
 *
 *   vqastore export <store.bin> <store.json>   binary -> JSON (byte-
 *                                              identical cell lines)
 *   vqastore import <store.json> <store.bin>   JSON -> binary (merge
 *                                              by key if it exists)
 *   vqastore info <store.bin>                  version, cells, damage
 *   vqastore compact <store.bin>               drop superseded markers
 *                                              and duplicate keys
 *   vqastore merge <out> <in>...               mergeSweepStores over
 *                                              binary stores
 *
 * JSON lives only here, as the export/import form of a store: one
 * tool owns every offline store operation, the drivers own only
 * running sweeps against a store.
 */

#include <iostream>
#include <string>
#include <vector>

#include "store/sweep_store.hpp"
#include "vqa/sweep.hpp"

namespace {

int
usage()
{
    std::cerr
        << "usage: vqastore export <store.bin> <store.json>\n"
           "       vqastore import <store.json> <store.bin>\n"
           "       vqastore info <store.bin>\n"
           "       vqastore compact <store.bin>\n"
           "       vqastore merge <out> <in>...\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eftvqa;

    if (argc < 3)
        return usage();
    const std::string command = argv[1];

    try {
        if (command == "export" && argc == 4) {
            const store::ConvertReport report =
                store::exportStoreToJson(argv[2], argv[3]);
            std::cout << "vqastore: exported " << report.cells
                      << " cell(s) from " << argv[2] << " to "
                      << argv[3] << std::endl;
            return 0;
        }
        if (command == "import" && argc == 4) {
            const store::ConvertReport report =
                store::importJsonToStore(argv[2], argv[3]);
            std::cout << "vqastore: imported " << report.cells
                      << " cell(s) (" << report.skipped
                      << " already present) from " << argv[2] << " to "
                      << argv[3] << std::endl;
            return 0;
        }
        if (command == "info" && argc == 3) {
            const store::SweepStore st(argv[2],
                                       store::SweepStore::Mode::read_only);
            const store::StoreStats stats = st.stats();
            std::cout << "vqastore: " << argv[2] << ": binary v"
                      << store::SweepStore::kVersion << ", sweep '"
                      << st.sweepName() << "', " << stats.cells
                      << " cell(s) (" << stats.cells - stats.markers
                      << " healthy, " << stats.markers
                      << " quarantined), " << stats.corruptLines()
                      << " corrupt" << std::endl;
            return 0;
        }
        if (command == "compact" && argc == 3) {
            store::SweepStore st(argv[2],
                                 store::SweepStore::Mode::append);
            const size_t before = st.stats().cells;
            st.compact();
            std::cout << "vqastore: compacted " << argv[2] << ": "
                      << before << " cell(s), "
                      << st.stats().markers << " quarantined"
                      << std::endl;
            return 0;
        }
        if (command == "merge" && argc >= 4) {
            const std::vector<std::string> inputs(argv + 3,
                                                  argv + argc);
            return runStoreMergeCli(inputs, argv[2], std::cout);
        }
    } catch (const std::exception &e) {
        std::cerr << "vqastore: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
