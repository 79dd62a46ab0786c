/**
 * @file
 * Disk latency is kept out of the benchmark: this definition takes the
 * place of libc's fsync for the statically linked library, so the
 * journal, checkpoint and artifact writes cost what they would on
 * tmpfs. Every other file operation is real. Calls are counted.
 */
#include <atomic>

namespace perfbench {
std::atomic<unsigned long> fsyncCalls{0};
}

extern "C" int
fsync(int)
{
    perfbench::fsyncCalls.fetch_add(1, std::memory_order_relaxed);
    return 0;
}
