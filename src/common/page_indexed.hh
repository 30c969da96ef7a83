/**
 * @file
 * Per-page state as a flat table. Workload generators bump-allocate
 * from address 0 (workload/address_space.hh), so the page numbers a
 * run touches are dense, and a vector indexed by page number replaces
 * a hash map keyed by it — the way the paper's hardware indexes its
 * page tables, translation table and directory (Sections 2.2, 3.1).
 */

#ifndef RNUMA_COMMON_PAGE_INDEXED_HH
#define RNUMA_COMMON_PAGE_INDEXED_HH

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rnuma
{

/**
 * A vector of T indexed by page number. Every slot holds the fill
 * value until it is written, so a read needs no presence test: a read
 * past the end returns the fill value without growing, and a write
 * grows the table to cover its slot. Growth past maxPages slots is
 * fatal, naming the page, so a stray address cannot exhaust memory.
 */
template <class T>
class PageIndexed
{
  public:
    explicit PageIndexed(T fill = T{}) : fill_(std::move(fill)) {}

    /** The value at slot @p i; the fill value when never written. */
    const T &
    operator[](Addr i) const
    {
        return i < slots_.size() ? slots_[i] : fill_;
    }

    /** Slot @p i for writing, growing the table to cover it. */
    T &
    slot(Addr i)
    {
        if (i >= slots_.size())
            grow(i);
        return slots_[i];
    }

    /** Return slot @p i to the fill value (no growth). */
    void
    reset(Addr i)
    {
        if (i < slots_.size())
            slots_[i] = fill_;
    }

    /** Slots covered so far; every slot past it holds the fill. */
    std::size_t size() const { return slots_.size(); }

    typename std::vector<T>::const_iterator begin() const
    {
        return slots_.begin();
    }
    typename std::vector<T>::const_iterator end() const
    {
        return slots_.end();
    }

    /** Equal when every slot reads equal, however far each grew. */
    friend bool
    operator==(const PageIndexed &a, const PageIndexed &b)
    {
        const std::size_t n = std::max(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i)
            if (!(a[i] == b[i]))
                return false;
        return a.fill_ == b.fill_;
    }

  private:
    [[gnu::noinline, gnu::cold]] void
    grow(Addr i)
    {
        if (i >= maxPages) {
            RNUMA_FATAL("page ", i, " is past the simulator's limit of ",
                        maxPages, " pages (maxPages)");
        }
        if constexpr (std::is_copy_constructible_v<T>)
            slots_.resize(i + 1, fill_);
        else
            slots_.resize(i + 1);
    }

    std::vector<T> slots_;
    T fill_;
};

} // namespace rnuma

#endif // RNUMA_COMMON_PAGE_INDEXED_HH
