/**
 * @file
 * Fixed-capacity circular FIFO: the one ring of the core, used by the
 * ROB, the fetch buffer, the LSQ's store list and the NRR reservation
 * trackers' windows, each sized by a real bound.
 */

#ifndef VPR_COMMON_CIRCULAR_BUFFER_HH
#define VPR_COMMON_CIRCULAR_BUFFER_HH

#include <cstddef>
#include <new>
#include <vector>

#include "common/logging.hh"

namespace vpr
{

/**
 * A bounded FIFO with O(1) push/pop at both ends and random access by
 * logical position (0 = oldest). Capacity is fixed at construction.
 */
template <typename T>
class CircularBuffer
{
  public:
    explicit CircularBuffer(std::size_t capacity)
        : slots(capacity), head(0), count(0)
    {
        VPR_ASSERT(capacity > 0, "capacity must be positive");
    }

    std::size_t capacity() const { return slots.size(); }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == slots.size(); }
    std::size_t freeSlots() const { return slots.size() - count; }

    /** Append at the tail (youngest end). */
    void
    pushBack(const T &value)
    {
        VPR_ASSERT(!full(), "pushBack on full buffer");
        slots[physIndex(count)] = value;
        ++count;
    }

    /** Append a value-initialised element at the tail, constructed in
     *  its slot: no temporary is built and copied in. */
    T &
    emplaceBack()
    {
        VPR_ASSERT(!full(), "emplaceBack on full buffer");
        T &slot = slots[physIndex(count)];
        slot.~T();
        ::new (static_cast<void *>(&slot)) T();
        ++count;
        return slot;
    }

    /** Remove the oldest element. */
    void
    popFront()
    {
        VPR_ASSERT(!empty(), "popFront on empty buffer");
        if (++head == slots.size())
            head = 0;
        --count;
    }

    /** Remove the youngest element. */
    void
    popBack()
    {
        VPR_ASSERT(!empty(), "popBack on empty buffer");
        --count;
    }

    /** Oldest element. */
    T &front() { VPR_ASSERT(!empty(), "front of empty"); return at(0); }
    const T &
    front() const
    {
        VPR_ASSERT(!empty(), "front of empty");
        return at(0);
    }

    /** Youngest element. */
    T &
    back()
    {
        VPR_ASSERT(!empty(), "back of empty");
        return at(count - 1);
    }
    const T &
    back() const
    {
        VPR_ASSERT(!empty(), "back of empty");
        return at(count - 1);
    }

    /** Access by logical index: 0 is the oldest element. */
    T &
    at(std::size_t logical)
    {
        VPR_ASSERT(logical < count, "index ", logical, " out of range ",
                   count);
        return slots[physIndex(logical)];
    }
    const T &
    at(std::size_t logical) const
    {
        VPR_ASSERT(logical < count, "index ", logical, " out of range ",
                   count);
        return slots[physIndex(logical)];
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** head + logical, wrapped by one compare-and-subtract (both are
     *  below the capacity): no division on the per-cycle path. */
    std::size_t
    physIndex(std::size_t logical) const
    {
        const std::size_t i = head + logical;
        return i >= slots.size() ? i - slots.size() : i;
    }

    std::vector<T> slots;
    std::size_t head;
    std::size_t count;
};

} // namespace vpr

#endif // VPR_COMMON_CIRCULAR_BUFFER_HH
