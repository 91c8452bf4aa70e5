/**
 * @file
 * Flat open-addressing set with an O(1) clear, for per-iteration
 * scratch state that is emptied far more often than it is filled.
 *
 * Every slot carries the epoch it was written in; a slot from an older
 * epoch reads as empty. clear() advances the epoch instead of touching
 * the slots, so emptying a set that once held thousands of keys costs
 * the same as emptying one that held none (std::unordered_set::clear()
 * walks its whole bucket array). The table grows by doubling at half
 * load and never shrinks: one set reused across iterations settles at
 * its high-water size.
 */

#ifndef LOOPSPEC_UTIL_EPOCH_SET_HH
#define LOOPSPEC_UTIL_EPOCH_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace loopspec
{

/** Set of integer keys (linear probing, Fibonacci hashing). */
template <typename Key>
class EpochSet
{
  public:
    EpochSet() { resize(16); }

    /** Add @p key; true iff it was not already a member. */
    bool
    insert(Key key)
    {
        size_t i = home(key);
        for (;; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (s.stamp != epoch)
                break;
            if (s.key == key)
                return false;
        }
        if (2 * (count + 1) > slots.size()) {
            grow();
            return insert(key);
        }
        slots[i] = {key, epoch};
        ++count;
        return true;
    }

    bool
    contains(Key key) const
    {
        for (size_t i = home(key);; i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (s.stamp != epoch)
                return false;
            if (s.key == key)
                return true;
        }
    }

    size_t size() const { return count; }

    /** Empty the set in O(1). */
    void
    clear()
    {
        count = 0;
        if (++epoch == 0) {
            // Stamp wrap-around: a slot stamped 2^32 epochs ago would
            // read as live again, so wipe them once per wrap.
            for (Slot &s : slots)
                s.stamp = 0;
            epoch = 1;
        }
    }

  private:
    struct Slot
    {
        Key key;
        uint32_t stamp; //!< epoch of the write; 0 = never written
    };

    size_t
    home(Key key) const
    {
        return static_cast<size_t>(
            (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            shift);
    }

    void
    resize(size_t cap)
    {
        slots.assign(cap, Slot{Key{}, 0});
        mask = cap - 1;
        shift = 64;
        for (size_t c = cap; c > 1; c >>= 1)
            --shift;
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots);
        const uint32_t live = epoch;
        resize(2 * old.size());
        epoch = 1;
        count = 0;
        for (const Slot &s : old) {
            if (s.stamp == live)
                insert(s.key);
        }
    }

    std::vector<Slot> slots;
    size_t mask = 0;
    unsigned shift = 64;
    uint32_t epoch = 1;
    size_t count = 0;
};

} // namespace loopspec

#endif // LOOPSPEC_UTIL_EPOCH_SET_HH
