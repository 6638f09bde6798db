#include "trace/trace_file.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/logging.hh"

namespace vpr
{

namespace
{

constexpr char kMagic[8] = {'V', 'P', 'R', 'T', 'R', 'A', 'C', 'E'};

/** On-disk record layout (packed, little endian, 40 bytes). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t effAddr;
    std::uint64_t target;
    std::uint8_t op;
    std::uint8_t destClass, destIdxLo, destIdxHi;
    std::uint8_t src0Class, src0IdxLo, src0IdxHi;
    std::uint8_t src1Class, src1IdxLo, src1IdxHi;
    std::uint8_t memSize;
    std::uint8_t taken;
    std::uint8_t pad[4];
};
static_assert(sizeof(DiskRecord) == 40, "disk record layout drifted");

void
packReg(const RegId &r, std::uint8_t &cls, std::uint8_t &lo,
        std::uint8_t &hi)
{
    if (!r.valid()) {
        cls = 0xff;
        lo = hi = 0xff;
        return;
    }
    cls = static_cast<std::uint8_t>(r.regClass());
    lo = static_cast<std::uint8_t>(r.index() & 0xff);
    hi = static_cast<std::uint8_t>(r.index() >> 8);
}

DiskRecord
pack(const TraceRecord &r)
{
    DiskRecord d{};
    d.pc = r.pc;
    d.effAddr = r.effAddr;
    d.target = r.target;
    d.op = static_cast<std::uint8_t>(r.op);
    packReg(r.dest, d.destClass, d.destIdxLo, d.destIdxHi);
    packReg(r.src[0], d.src0Class, d.src0IdxLo, d.src0IdxHi);
    packReg(r.src[1], d.src1Class, d.src1IdxLo, d.src1IdxHi);
    d.memSize = r.memSize;
    d.taken = r.taken ? 1 : 0;
    return d;
}

/** Decode one register operand of record @p i of @p path; throws Error
 *  unless it is "none" or a valid architectural register. */
RegId
unpackReg(std::uint8_t cls, std::uint8_t lo, std::uint8_t hi,
          const std::string &path, std::uint32_t i, const char *operand)
{
    if (cls == 0xff)
        return RegId::none();
    const std::uint16_t idx =
        static_cast<std::uint16_t>(lo) |
        (static_cast<std::uint16_t>(hi) << 8);
    if (cls >= kNumRegClasses || idx >= kNumLogicalRegs)
        VPR_FATAL("'", path, "': record ", i, ": bad ", operand,
                  " register (class ", unsigned(cls), ", index ", idx,
                  ")");
    return RegId(static_cast<RegClass>(cls), idx);
}

/** Decode record @p i of @p path; throws Error on a bad field. */
TraceRecord
unpack(const DiskRecord &d, const std::string &path, std::uint32_t i)
{
    TraceRecord r;
    r.pc = d.pc;
    r.effAddr = d.effAddr;
    r.target = d.target;
    if (d.op >= kNumOpClasses)
        VPR_FATAL("'", path, "': record ", i, ": bad op class ",
                  unsigned(d.op));
    r.op = static_cast<OpClass>(d.op);
    r.dest = unpackReg(d.destClass, d.destIdxLo, d.destIdxHi, path, i,
                       "dest");
    r.src[0] = unpackReg(d.src0Class, d.src0IdxLo, d.src0IdxHi, path, i,
                         "src0");
    r.src[1] = unpackReg(d.src1Class, d.src1IdxLo, d.src1IdxHi, path, i,
                         "src1");
    r.memSize = d.memSize;
    r.taken = d.taken != 0;
    return r;
}

/** An open FILE that closes itself, also when an Error unwinds. */
using File = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;

File
openFile(const std::string &path, const char *mode)
{
    return File(std::fopen(path.c_str(), mode), &std::fclose);
}

} // namespace

std::size_t
writeTraceFile(const std::string &path,
               const std::vector<TraceRecord> &records)
{
    VectorTraceStream stream(records);
    return writeTraceFile(path, stream, records.size());
}

std::size_t
writeTraceFile(const std::string &path, TraceStream &stream,
               std::size_t maxRecords)
{
    // Records stream straight to disk, so memory use never depends on
    // the requested count; the header's count is patched in at the end.
    if (maxRecords > std::numeric_limits<std::uint32_t>::max())
        VPR_FATAL("cannot write ", maxRecords, " records to trace file '",
                  path, "' (the format counts at most 2^32 - 1)");
    const File f = openFile(path, "wb");
    if (!f)
        VPR_FATAL("cannot open trace file '", path, "' for writing");

    std::uint32_t version = kTraceFormatVersion;
    std::uint32_t count = 0;
    if (std::fwrite(kMagic, sizeof(kMagic), 1, f.get()) != 1 ||
        std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1)
        VPR_FATAL("short write on trace header '", path, "'");
    for (; count < maxRecords; ++count) {
        const std::optional<TraceRecord> r = stream.next();
        if (!r)
            break;
        DiskRecord d = pack(*r);
        if (std::fwrite(&d, sizeof(d), 1, f.get()) != 1)
            VPR_FATAL("short write on trace body '", path, "'");
    }
    const long countOffset = sizeof(kMagic) + sizeof(version);
    if (std::fseek(f.get(), countOffset, SEEK_SET) != 0 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1)
        VPR_FATAL("short write on trace header '", path, "'");
    return count;
}

std::vector<TraceRecord>
readTraceFile(const std::string &path)
{
    const File f = openFile(path, "rb");
    if (!f)
        VPR_FATAL("cannot open trace file '", path, "'");

    char magic[8];
    std::uint32_t version = 0, count = 0;
    if (std::fread(magic, sizeof(magic), 1, f.get()) != 1 ||
        std::memcmp(magic, kMagic, sizeof(magic)) != 0)
        VPR_FATAL("'", path, "' is not a vpr trace file");
    if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
        version != kTraceFormatVersion)
        VPR_FATAL("'", path, "': unsupported trace version ", version);
    if (std::fread(&count, sizeof(count), 1, f.get()) != 1)
        VPR_FATAL("'", path, "': truncated header");

    // Trust the header's count only as far as the file backs it.
    const long bodyStart = std::ftell(f.get());
    std::fseek(f.get(), 0, SEEK_END);
    const long bodyBytes = std::ftell(f.get()) - bodyStart;
    std::fseek(f.get(), bodyStart, SEEK_SET);
    std::vector<TraceRecord> recs;
    recs.reserve(std::min<std::uint64_t>(
        count, bodyBytes < 0 ? 0 : bodyBytes / sizeof(DiskRecord)));
    for (std::uint32_t i = 0; i < count; ++i) {
        DiskRecord d;
        if (std::fread(&d, sizeof(d), 1, f.get()) != 1)
            VPR_FATAL("'", path, "': truncated at record ", i, " of ",
                      count);
        recs.push_back(unpack(d, path, i));
    }
    return recs;
}

} // namespace vpr
