/**
 * @file
 * The three workload runners. Each fills @p report with the
 * end-to-end metrics (untraced) or every per-layer metric (traced),
 * the checked-operation counts and the artifact digests. @p state_dir
 * is a fresh directory the runner may write below.
 */
#ifndef PERFBENCH_BENCHES_HPP
#define PERFBENCH_BENCHES_HPP

#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void runCampaignWorkload(const CampaignWorkload &workload, bool traced,
                         const std::string &state_dir, Tracer &tracer,
                         Report &report);

void runServeWorkload(const ServeWorkload &workload, bool traced,
                      const std::string &state_dir, Tracer &tracer,
                      Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCHES_HPP
