/**
 * @file
 * Live-heap accounting for the benchmark binary. Replacing the global
 * operator new and delete here counts every C++ allocation the library
 * makes, from outside it: each block adds its usable size to one
 * counter when allocated and subtracts it when freed, and the counter's
 * highest value is the process's peak live heap.
 *
 * Unlike the peak resident set, the count leaves out free memory the
 * allocator keeps. How much that is depends on which thread freed what
 * and when: with glibc's per-thread arenas the peak resident set of one
 * screen run read anywhere from 235 to 340 MB.
 */

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace
{

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void *
allocate(std::size_t n)
{
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    const std::size_t size = ::malloc_usable_size(p);
    const std::size_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    std::size_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed)) {
    }
    return p;
}

void
release(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_live.fetch_sub(::malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    return allocate(n);
}

void *
operator new[](std::size_t n)
{
    return allocate(n);
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete[](void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}

namespace hwpr::e2e
{

double
liveHeapMb()
{
    return double(g_live.load(std::memory_order_relaxed)) /
           (1024.0 * 1024.0);
}

double
peakHeapMb()
{
    return double(g_peak.load(std::memory_order_relaxed)) /
           (1024.0 * 1024.0);
}

void
resetPeakHeap()
{
    g_peak.store(g_live.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

} // namespace hwpr::e2e
