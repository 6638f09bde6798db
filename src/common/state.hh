/**
 * @file
 * Microarchitectural state serialization — the checkpoint mirror of the
 * visitStats / visitParams patterns.
 *
 * Every structure that carries state across a drained (quiescent) point
 * exposes visitState(StateVisitor &): one walk that either appends the
 * live fields to a byte buffer (StateSaver) or assigns them back from
 * one (StateLoader). The walk is direction-agnostic — each field is
 * written exactly once with value()/bytes(), and the visitor decides
 * whether that means read or write — so the save and load paths cannot
 * drift apart.
 *
 * Encoding: little-endian fixed 64-bit words for scalars, raw bytes for
 * byte arrays, an FNV-1a tag per section() so a load that goes out of
 * sync fails loudly instead of scrambling fields. The container adds a
 * magic, a format version, the checkpoint scope, the warm-state digest
 * and a trailing payload checksum; every mismatch throws CkptError,
 * which callers turn into a cold run plus a warning — never a wrong
 * result.
 */

#ifndef VPR_COMMON_STATE_HH
#define VPR_COMMON_STATE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace vpr
{

/** Any checkpoint (de)serialization failure: wrong magic, version skew,
 *  digest mismatch, truncation, section drift, out-of-range field.
 *  Checkpoint and cache readers catch it and fall back to a cold run;
 *  anywhere else it is an ordinary user Error. */
class CkptError : public Error
{
  public:
    using Error::Error;
};

/** What a checkpoint captures. */
enum class CkptScope : std::uint8_t
{
    /** Only the long-lived warm state a functional fast-forward builds
     *  (trace position, BHT, cache, clocks). Everything else is still
     *  at its construction default, so one functional checkpoint is
     *  shared by every grid cell with the same warm prefix regardless
     *  of rename scheme or register-file size. */
    Functional,
    /** Every live structure at a drained point, including the renamer —
     *  the per-cell checkpoint a detailed warm-up produces. */
    Full,
};

/** Short stable scope name ("func"/"full"); used in file names. */
const char *ckptScopeName(CkptScope s);

/** Bumped whenever the serialized layout of any structure changes; a
 *  checkpoint from another version is rejected (version skew). */
constexpr std::uint32_t kStateFormatVersion = 1;

/** FNV-1a 64-bit over a byte range (section tags, payload checksums,
 *  warm-state digests). */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t seed = 14695981039346656037ull)
{
    return fnv1a(s.data(), s.size(), seed);
}

/**
 * Direction-agnostic walker over serialized fields. Structures
 * implement visitState(StateVisitor &) in terms of the typed helpers;
 * StateSaver/StateLoader below provide the two directions.
 */
class StateVisitor
{
  public:
    virtual ~StateVisitor() = default;

    /** True when fields are being assigned from the buffer. */
    virtual bool loading() const = 0;

    /** Raw primitives — everything funnels through these two. @{ */
    virtual void word(std::uint64_t &v) = 0;
    virtual void bytes(void *p, std::size_t n) = 0;
    /** @} */

    /** Named section marker: a tag word derived from @p name. A load
     *  whose next tag differs throws CkptError — catches truncation
     *  and layout drift at the structure boundary it happens. */
    void section(const char *name);

    /** One integral, enum or bool field (widened to a word). On load an
     *  encoded value that does not fit the field throws CkptError. */
    template <typename T>
    void
    value(T &field)
    {
        static_assert((std::is_integral_v<T> || std::is_enum_v<T>) &&
                          sizeof(T) <= sizeof(std::uint64_t),
                      "value() takes integral/enum fields");
        std::uint64_t w = static_cast<std::uint64_t>(field);
        word(w);
        if (!loading())
            return;
        if constexpr (!std::is_same_v<T, std::uint64_t>) {
            // Round-trip check: a corrupted word must not silently
            // truncate into a narrower field.
            T narrowed = static_cast<T>(w);
            if (static_cast<std::uint64_t>(narrowed) != w)
                throw CkptError("field value out of range");
            field = narrowed;
        } else {
            field = w;
        }
    }

    /** One double field (bit pattern through a word). */
    void
    value(double &field)
    {
        std::uint64_t w;
        std::memcpy(&w, &field, sizeof(w));
        word(w);
        if (loading())
            std::memcpy(&field, &w, sizeof(field));
    }

    /** A Random generator's raw state. */
    void
    rng(Random &r)
    {
        std::uint64_t s = r.rawState();
        word(s);
        if (loading())
            r.setRawState(s);
    }

    /**
     * A vector whose size is fixed by the configuration (map tables,
     * cache lines, BHT counters): only the elements travel; a load into
     * a vector of a different size throws CkptError (the digest should
     * have prevented the restore — this is the backstop).
     */
    template <typename T>
    void
    fixedVec(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        word(n);
        if (loading() && n != v.size())
            throw CkptError("fixed-size table length mismatch");
        for (auto &e : v)
            value(e);
    }

    /** A variable-size vector (free lists, MSHRs, pending frees): the
     *  size travels and the load resizes. @p maxSize bounds corrupted
     *  inputs. */
    template <typename T>
    void
    dynVec(std::vector<T> &v, std::uint64_t maxSize = 1u << 24)
    {
        std::uint64_t n = v.size();
        word(n);
        if (loading()) {
            if (n > maxSize)
                throw CkptError("sequence length implausibly large");
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v)
            value(e);
    }

    /** A fixed-size vector<bool> (scoreboards), one word per bit for
     *  simplicity — scoreboards are at most a few hundred entries. */
    void
    boolVec(std::vector<bool> &v)
    {
        std::uint64_t n = v.size();
        word(n);
        if (loading() && n != v.size())
            throw CkptError("fixed-size bitmap length mismatch");
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::uint64_t b = v[i] ? 1 : 0;
            word(b);
            if (loading()) {
                if (b > 1)
                    throw CkptError("bitmap entry not a bit");
                v[i] = b != 0;
            }
        }
    }
};

/** The save direction: appends fields to an in-memory byte buffer. */
class StateSaver : public StateVisitor
{
  public:
    bool loading() const override { return false; }
    void word(std::uint64_t &v) override;
    void bytes(void *p, std::size_t n) override;

    /** The serialized payload so far. */
    const std::string &buffer() const { return buf; }
    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

/** The load direction: assigns fields from a byte buffer. Underrun and
 *  every mismatch throw CkptError; the structure being loaded must be
 *  rebuilt by the caller on failure (fields may be half-assigned). */
class StateLoader : public StateVisitor
{
  public:
    explicit StateLoader(const std::string &payload)
        : buf(payload), pos(0)
    {}

    bool loading() const override { return true; }
    void word(std::uint64_t &v) override;
    void bytes(void *p, std::size_t n) override;

    /** All payload bytes consumed? Checked after a full walk so a
     *  payload with trailing garbage is rejected too. */
    bool exhausted() const { return pos == buf.size(); }

  private:
    const std::string &buf;
    std::size_t pos;
};

/**
 * Checkpoint container framing (before optional compression):
 *
 *   magic "VPRCKPT\0" (8 bytes)
 *   u64 format version   — kStateFormatVersion; skew rejected
 *   u64 scope            — CkptScope; mismatch rejected
 *   u64 warm-state digest — content address; mismatch = stale file
 *   u64 payload size
 *   payload bytes         — one StateSaver walk
 *   u64 payload FNV-1a    — corruption backstop
 *
 * unpackCheckpoint verifies every field and throws CkptError naming the
 * first failure; packCheckpoint is its exact inverse.
 */
extern const char kCkptMagic[8];

std::string packCheckpoint(CkptScope scope, std::uint64_t digest,
                           const std::string &payload);

/** @return the verified payload. @p expectDigest 0 skips the digest
 *  check (tools that inspect foreign checkpoints). */
std::string unpackCheckpoint(const std::string &raw, CkptScope expectScope,
                             std::uint64_t expectDigest);

} // namespace vpr

#endif // VPR_COMMON_STATE_HH
