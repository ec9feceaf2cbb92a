/**
 * @file
 * Zero-filled host arrays that construction does not write.
 *
 * calloc zeroes without writing where it can: a range above the
 * allocator's mmap threshold is usually a fresh anonymous mapping
 * whose pages the kernel zero-fills on first touch, so a page no
 * access touches never becomes resident. (glibc raises the threshold,
 * up to 32 MiB, as mapped chunks are freed; a range below it comes
 * from the heap and may be zeroed by writing.)
 */

#ifndef PMILL_COMMON_ZEROED_HH
#define PMILL_COMMON_ZEROED_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace pmill {

struct FreeDeleter {
    void operator()(void *p) const { std::free(p); }
};

template <typename T>
using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

/** @p n objects of @p T, each all zero bytes, from calloc. Throws
 * std::bad_alloc when the host is out of memory. */
template <typename T>
ZeroedArray<T>
make_zeroed(std::size_t n)
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "calloc'd bytes must be a valid T");
    void *p = std::calloc(n, sizeof(T));
    if (p == nullptr && n != 0)
        throw std::bad_alloc();
    return ZeroedArray<T>(static_cast<T *>(p));
}

} // namespace pmill

#endif // PMILL_COMMON_ZEROED_HH
