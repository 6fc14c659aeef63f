#include "store/matrix_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/fault.h"
#include "common/tiles.h"
#include "obs/metrics.h"

namespace dpe::store {

namespace fs = std::filesystem;

namespace {

Status Corrupt(const std::string& what) {
  return Status::ParseError("matrix store: " + what);
}

// Journal traffic on the process-default registry. The framed-file paths
// (snapshots, matrices, shards) are counted inside the codec; the journal
// appends raw frames itself, so its bytes are counted here.
obs::Counter& JournalRecordsAppended() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal_records_appended");
  return c;
}
obs::Counter& JournalBytesWritten() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_written");
  return c;
}
obs::Counter& JournalBytesRead() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_read");
  return c;
}
obs::Counter& JournalTornTailRecoveries() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal_tail_recoveries");
  return c;
}
// Torn-tail tolerance made observable (not silent): every record and byte a
// journal recovery drops is counted here, so a fleet dashboard can tell
// clean restarts from crash-looping hosts that shed work on every boot.
obs::Counter& JournalDroppedRecords() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal.dropped_records");
  return c;
}
obs::Counter& JournalDroppedBytes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal.dropped_bytes");
  return c;
}
obs::Counter& ScrubRuns() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.runs");
  return c;
}
obs::Counter& ScrubCellsQuarantined() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.cells_quarantined");
  return c;
}
obs::Counter& ScrubJournalRecordsQuarantined() {
  static obs::Counter& c = obs::MetricsRegistry::Default().counter(
      "store.scrub.journal_records_quarantined");
  return c;
}
obs::Counter& ScrubRewrites() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.rewrites");
  return c;
}
obs::Counter& CrcValidations() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.crc_validations");
  return c;
}
obs::Counter& CompactionPublishes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.compaction.publishes");
  return c;
}

void EncodeJournalRecord(const JournalRecord& record, Writer* w) {
  w->PutU8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case JournalRecord::Kind::kQueryAppended:
      w->PutU32(record.index);
      w->PutString(record.sql);
      break;
    case JournalRecord::Kind::kRowComputed:
      w->PutString(record.measure);
      w->PutU32(record.row);
      w->PutDoubles(record.distances);
      break;
  }
}

Result<JournalRecord> DecodeJournalRecord(std::string_view payload) {
  Reader r(payload);
  JournalRecord record;
  DPE_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  switch (static_cast<JournalRecord::Kind>(kind)) {
    case JournalRecord::Kind::kQueryAppended: {
      record.kind = JournalRecord::Kind::kQueryAppended;
      DPE_ASSIGN_OR_RETURN(record.index, r.ReadU32());
      DPE_ASSIGN_OR_RETURN(record.sql, r.ReadString());
      break;
    }
    case JournalRecord::Kind::kRowComputed: {
      record.kind = JournalRecord::Kind::kRowComputed;
      DPE_ASSIGN_OR_RETURN(record.measure, r.ReadString());
      DPE_ASSIGN_OR_RETURN(record.row, r.ReadU32());
      // Row r holds exactly r distances; the record's length must agree
      // before anything is allocated.
      if (r.remaining() % 8 != 0 || r.remaining() / 8 != record.row) {
        return Corrupt("row record for row " + std::to_string(record.row) +
                       " carries " + std::to_string(r.remaining()) +
                       " distance bytes (expected " +
                       std::to_string(uint64_t{record.row} * 8) + ")");
      }
      record.distances.resize(record.row);
      DPE_RETURN_NOT_OK(r.ReadDoubles(record.distances));
      break;
    }
    default:
      return Corrupt("unknown journal record kind " + std::to_string(kind));
  }
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return record;
}

/// Validates a journal file's 8-byte prologue and scans its records.
Result<RecordScan> ScanJournalBytes(std::string_view data,
                                    const std::string& path) {
  Reader header(data);
  DPE_ASSIGN_OR_RETURN(uint32_t magic, header.ReadU32());
  if (magic != kJournalMagic) {
    return Corrupt("bad journal magic in " + path);
  }
  DPE_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version != kJournalFormatVersion) {
    return Corrupt("unsupported journal version " + std::to_string(version) +
                   " in " + path);
  }
  return ScanRecords(data.substr(8));
}

std::string JournalPrologue() {
  Writer header;
  header.PutU32(kJournalMagic);
  header.PutU32(kJournalFormatVersion);
  return header.TakeBuffer();
}

// -- Snapshot payload codec (v3) ----------------------------------------------

SnapshotMeta MetaFor(const Snapshot& snapshot) {
  SnapshotMeta meta;
  meta.query_count = snapshot.queries.size();
  for (const auto& [name, triangle] : snapshot.triangles) {
    meta.measures.push_back(name);
  }
  return meta;
}

void EncodeSnapshotCore(const Snapshot& snapshot, Writer* w) {
  EncodeSnapshotMeta(MetaFor(snapshot), w);
  w->PutU64(snapshot.queries.size());
  for (const std::string& sql : snapshot.queries) w->PutString(sql);
}

/// Core = meta + query log. Every measure the meta names starts out with an
/// empty triangle; the triangle section fills them in.
Result<Snapshot> DecodeSnapshotCore(Reader* r) {
  DPE_ASSIGN_OR_RETURN(SnapshotMeta meta, DecodeSnapshotMeta(r));
  DPE_ASSIGN_OR_RETURN(uint64_t query_count, r->ReadU64());
  if (query_count != meta.query_count) {
    return Corrupt("snapshot metadata declares " +
                   std::to_string(meta.query_count) + " queries but " +
                   std::to_string(query_count) + " are present");
  }
  if (query_count > r->remaining() / 4) {  // >= 4 bytes per string
    return Corrupt("snapshot query count " + std::to_string(query_count) +
                   " exceeds remaining input");
  }
  Snapshot snapshot;
  for (std::string& name : meta.measures) {
    snapshot.triangles.emplace(std::move(name), Triangle{});
  }
  snapshot.queries.reserve(query_count);
  for (uint64_t k = 0; k < query_count; ++k) {
    DPE_ASSIGN_OR_RETURN(std::string sql, r->ReadString());
    snapshot.queries.push_back(std::move(sql));
  }
  return snapshot;
}

/// CRC of a measure header: its name bytes followed by its rows (u64 LE).
uint32_t TriangleHeaderCrc(const std::string& name, uint64_t rows) {
  Writer w;
  w.PutString(name);
  w.PutU64(rows);
  return Crc32(w.buffer());
}

std::string EncodeSnapshotPayload(const Snapshot& snapshot) {
  Writer core;
  EncodeSnapshotCore(snapshot, &core);
  Writer w;
  w.PutU64(core.buffer().size());
  w.PutU32(Crc32(core.buffer()));
  w.PutRaw(core.buffer());
  w.PutU32(static_cast<uint32_t>(snapshot.triangles.size()));
  for (const auto& [name, triangle] : snapshot.triangles) {
    w.PutString(name);
    w.PutU64(triangle.rows);
    w.PutU32(TriangleHeaderCrc(name, triangle.rows));
    const std::span<const double> cells(triangle.cells);
    for (uint64_t begin = 0; begin < cells.size();
         begin += kTriangleChunkCells) {
      const std::span<const double> chunk =
          cells.subspan(begin, std::min<uint64_t>(kTriangleChunkCells,
                                                  cells.size() - begin));
      w.PutU32(Crc32({reinterpret_cast<const char*>(chunk.data()),
                      chunk.size_bytes()}));
      w.PutDoubles(chunk);
    }
  }
  return w.TakeBuffer();
}

/// Bytes a triangle of `cells` cells occupies after its header: the cells
/// plus one CRC per chunk.
uint64_t TriangleBodyBytes(uint64_t cells) {
  return cells * 8 +
         (cells + kTriangleChunkCells - 1) / kTriangleChunkCells * 4;
}

/// One measure's header: name, rows, and a header CRC that must match.
/// `rows` is checked against the bytes left in `r` (with no overflow) so a
/// forged row count fails here, before anything is allocated.
Status ReadTriangleHeader(Reader* r, std::string* name, uint64_t* rows) {
  DPE_ASSIGN_OR_RETURN(*name, r->ReadString());
  DPE_ASSIGN_OR_RETURN(*rows, r->ReadU64());
  DPE_ASSIGN_OR_RETURN(uint32_t crc, r->ReadU32());
  if (crc != TriangleHeaderCrc(*name, *rows)) {
    return Corrupt("snapshot triangle header checksum mismatch");
  }
  // 2^32 rows would already be 2^63 cells; below it the byte count of the
  // body cannot overflow.
  if (*rows > (uint64_t{1} << 32) ||
      TriangleCells(*rows) > r->remaining() / 8 ||
      TriangleBodyBytes(TriangleCells(*rows)) > r->remaining()) {
    return Corrupt("snapshot triangle '" + *name + "' declares " +
                   std::to_string(*rows) + " rows but only " +
                   std::to_string(r->remaining()) + " bytes remain");
  }
  return Status::OK();
}

/// Reads the next chunk of `chunk.size()` cells; false on a CRC mismatch.
Result<bool> ReadTriangleChunk(Reader* r, std::span<double> chunk) {
  DPE_ASSIGN_OR_RETURN(uint32_t crc, r->ReadU32());
  DPE_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadView(chunk.size_bytes()));
  CrcValidations().Increment();
  if (Crc32(bytes) != crc) return false;
  Reader chunk_reader(bytes);
  DPE_RETURN_NOT_OK(chunk_reader.ReadDoubles(chunk));
  return true;
}

/// Strict decode of a payload whose frame CRC the caller has verified.
Result<Snapshot> DecodeSnapshotPayload(std::string_view payload) {
  Reader r(payload);
  DPE_ASSIGN_OR_RETURN(uint64_t core_len, r.ReadU64());
  DPE_ASSIGN_OR_RETURN(uint32_t core_crc, r.ReadU32());
  DPE_ASSIGN_OR_RETURN(std::string_view core, r.ReadView(core_len));
  if (Crc32(core) != core_crc) {
    return Corrupt("snapshot core checksum mismatch");
  }
  Reader core_r(core);
  DPE_ASSIGN_OR_RETURN(Snapshot snapshot, DecodeSnapshotCore(&core_r));
  DPE_RETURN_NOT_OK(core_r.ExpectEnd());
  DPE_ASSIGN_OR_RETURN(uint32_t measure_count, r.ReadU32());
  if (measure_count != snapshot.triangles.size()) {
    return Corrupt("snapshot carries " + std::to_string(measure_count) +
                   " triangles but its metadata names " +
                   std::to_string(snapshot.triangles.size()));
  }
  for (uint32_t m = 0; m < measure_count; ++m) {
    std::string name;
    uint64_t rows = 0;
    DPE_RETURN_NOT_OK(ReadTriangleHeader(&r, &name, &rows));
    auto it = snapshot.triangles.find(name);
    if (it == snapshot.triangles.end() || it->second.rows != 0) {
      return Corrupt("snapshot triangle '" + name +
                     "' is not named once by the metadata");
    }
    Triangle& triangle = it->second;
    triangle.rows = rows;
    triangle.cells.resize(TriangleCells(rows));
    // The frame CRC the caller verified already covers every chunk, so
    // this path only bulk-copies; the chunk CRCs let the scrubber
    // (SalvageSnapshotPayload) localize damage.
    const std::span<double> cells(triangle.cells);
    for (uint64_t begin = 0; begin < cells.size();
         begin += kTriangleChunkCells) {
      DPE_RETURN_NOT_OK(r.ReadU32().status());
      DPE_RETURN_NOT_OK(r.ReadDoubles(cells.subspan(
          begin, std::min(kTriangleChunkCells, cells.size() - begin))));
    }
  }
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return snapshot;
}

/// Rows of a triangle whose cells [0, cells) are intact: the last row that
/// lies wholly before the first damaged cell.
uint64_t RowsWithin(uint64_t cells) {
  uint64_t rows = 0;
  while (TriangleCells(rows + 1) <= cells) ++rows;
  return rows;
}

/// Tolerant parse for the scrubber: the core must decode (queries are
/// source data and cannot be recomputed), but a damaged chunk truncates
/// its triangle instead of failing the parse.
struct SnapshotSalvageResult {
  Snapshot snapshot;
  bool core_ok = false;
  uint64_t chunks_checked = 0;
  uint64_t chunks_quarantined = 0;
  uint64_t cells_quarantined = 0;
};

SnapshotSalvageResult SalvageSnapshotPayload(std::string_view payload) {
  SnapshotSalvageResult out;
  Reader r(payload);
  Result<uint64_t> core_len = r.ReadU64();
  Result<uint32_t> core_crc = r.ReadU32();
  if (!core_len.ok() || !core_crc.ok()) return out;
  Result<std::string_view> core = r.ReadView(*core_len);
  if (!core.ok() || Crc32(*core) != *core_crc) return out;
  Reader core_r(*core);
  Result<Snapshot> decoded = DecodeSnapshotCore(&core_r);
  if (!decoded.ok() || !core_r.AtEnd()) return out;
  out.snapshot = std::move(*decoded);
  out.core_ok = true;
  Result<uint32_t> measure_count = r.ReadU32();
  if (!measure_count.ok()) return out;
  for (uint32_t m = 0; m < *measure_count; ++m) {
    std::string name;
    uint64_t rows = 0;
    const size_t unframed = r.remaining();
    auto it = out.snapshot.triangles.end();
    if (ReadTriangleHeader(&r, &name, &rows).ok()) {
      it = out.snapshot.triangles.find(name);
    }
    if (it == out.snapshot.triangles.end() || it->second.rows != 0) {
      // A destroyed header takes the framing of everything after it: the
      // remaining triangles are dropped (their measures keep empty
      // entries from the meta), and their bytes are counted as cells.
      out.chunks_quarantined += 1;
      out.cells_quarantined += unframed / 8;
      return out;
    }
    Triangle& triangle = it->second;
    const uint64_t cells = TriangleCells(rows);
    triangle.cells.resize(cells);
    uint64_t intact = cells;
    for (uint64_t begin = 0; begin < cells; begin += kTriangleChunkCells) {
      const uint64_t len = std::min(kTriangleChunkCells, cells - begin);
      out.chunks_checked += 1;
      Result<bool> chunk_ok = ReadTriangleChunk(
          &r, std::span<double>(triangle.cells).subspan(begin, len));
      if (intact == cells && (!chunk_ok.ok() || !*chunk_ok)) {
        out.chunks_quarantined += 1;
        intact = begin;
      }
    }
    triangle.rows = RowsWithin(intact);
    triangle.cells.resize(TriangleCells(triangle.rows));
    out.cells_quarantined += cells - triangle.cells.size();
  }
  if (!r.AtEnd()) {  // a damaged count hid triangles: they are dropped too
    out.chunks_quarantined += 1;
    out.cells_quarantined += r.remaining() / 8;
  }
  return out;
}

/// Atomic non-framed file replacement (the journal rewrite path — journals
/// carry per-record CRCs, not a whole-file frame). Same unique-tmp + rename
/// discipline as the codec's framed writer.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       bool sync) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("matrix store: cannot open " + tmp +
                              " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code cleanup_ec;
      fs::remove(tmp, cleanup_ec);
      return Status::Internal("matrix store: short write to " + tmp);
    }
  }
  if (sync) DPE_RETURN_NOT_OK(SyncPath(tmp));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal("matrix store: rename " + tmp + " -> " + path +
                            " failed");
  }
  if (!sync) return Status::OK();
  std::string parent = fs::path(path).parent_path().string();
  return SyncPath(parent.empty() ? "." : parent);
}

/// Parses "<stem>.dpe" (gen 0) or "<stem>.<g>.dpe" -> g. Returns false for
/// names that are neither (shard-/tmp files).
bool ParseGenerationName(const std::string& filename, const std::string& stem,
                         uint64_t* gen) {
  const std::string suffix = ".dpe";
  if (filename == stem + suffix) {
    *gen = 0;
    return true;
  }
  if (filename.size() <= stem.size() + suffix.size() + 1 ||
      filename.compare(0, stem.size() + 1, stem + ".") != 0 ||
      filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  const std::string digits = filename.substr(
      stem.size() + 1, filename.size() - stem.size() - 1 - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *gen = std::stoull(digits);
  return true;
}

}  // namespace

Result<MatrixStore> MatrixStore::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    // Surface the OS error text: "Permission denied" vs "Not a directory"
    // vs "No space left on device" need different operator responses.
    return Status::InvalidArgument("matrix store: cannot create directory " +
                                   dir + ": " + ec.message());
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        "matrix store: " + dir + " exists but is not a directory" +
        (ec ? " (" + ec.message() + ")" : ""));
  }
  MatrixStore store(dir);
  store.ResolveGenerations();
  return store;
}

Result<MatrixStore> MatrixStore::OpenExisting(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("matrix store: no store directory at " + dir);
  }
  MatrixStore store(dir);
  store.ResolveGenerations();
  return store;
}

std::string MatrixStore::SnapshotPath() const {
  return SnapshotPathForGen(gen_);
}

std::string MatrixStore::JournalPath() const {
  return JournalPathForGen(journal_gen_);
}

std::string MatrixStore::SnapshotPathForGen(uint64_t gen) const {
  const std::string name =
      gen == 0 ? "snapshot.dpe" : "snapshot." + std::to_string(gen) + ".dpe";
  return (fs::path(dir_) / name).string();
}

std::string MatrixStore::JournalPathForGen(uint64_t gen) const {
  const std::string name =
      gen == 0 ? "journal.dpe" : "journal." + std::to_string(gen) + ".dpe";
  return (fs::path(dir_) / name).string();
}

std::string MatrixStore::ManifestPath() const {
  return (fs::path(dir_) / "MANIFEST.dpe").string();
}

void MatrixStore::ResolveGenerations() {
  gen_ = 0;
  manifest_ok_ = true;
  Result<std::string> file = ReadFramedFile(ManifestPath(), kManifestMagic);
  if (file.ok()) {
    Reader r(*file);
    Result<CompactionManifest> manifest = DecodeCompactionManifest(&r);
    if (manifest.ok() && r.AtEnd()) {
      gen_ = manifest->generation;
    } else {
      manifest_ok_ = false;
    }
  } else if (file.status().code() != StatusCode::kNotFound) {
    manifest_ok_ = false;
  }
  if (!manifest_ok_) {
    // The manifest is a pointer, not the data: fall back to the highest
    // generation whose snapshot frame still reads valid. Scrub() rebuilds
    // the manifest from this resolution.
    uint64_t best = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      uint64_t g = 0;
      if (!ParseGenerationName(entry.path().filename().string(), "snapshot",
                               &g)) {
        continue;
      }
      if (g > best &&
          ReadFramedFile(SnapshotPathForGen(g), kSnapshotMagic,
                         kSnapshotFormatVersion)
              .ok()) {
        best = g;
      }
    }
    gen_ = best;
  }
  std::error_code ec;
  journal_gen_ =
      fs::exists(JournalPathForGen(gen_ + 1), ec) ? gen_ + 1 : gen_;
}

std::string MatrixStore::ShardPath(const std::string& matrix,
                                   uint32_t shard_index,
                                   uint32_t shard_count) const {
  return (fs::path(dir_) /
          ("shard-" + matrix + "-" + std::to_string(shard_index) + "of" +
           std::to_string(shard_count) + ".dpe"))
      .string();
}

// -- Snapshot ----------------------------------------------------------------

bool MatrixStore::HasSnapshot() const {
  std::error_code ec;
  return fs::exists(SnapshotPath(), ec);
}

Status MatrixStore::WriteSnapshotToPath(const std::string& path,
                                        const Snapshot& snapshot) const {
  return WriteFramedFile(path, kSnapshotMagic, EncodeSnapshotPayload(snapshot),
                         kSnapshotFormatVersion,
                         fsync_policy_ != FsyncPolicy::kNever);
}

Status MatrixStore::WriteManifest(const CompactionManifest& manifest) const {
  Writer w;
  EncodeCompactionManifest(manifest, &w);
  return WriteFramedFile(ManifestPath(), kManifestMagic, w.buffer(),
                         kFormatVersion, fsync_policy_ != FsyncPolicy::kNever);
}

void MatrixStore::SweepOldGenerations(uint64_t keep_gen) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t g = 0;
    if ((ParseGenerationName(name, "snapshot", &g) ||
         ParseGenerationName(name, "journal", &g)) &&
        g < keep_gen) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);  // best effort: stale files are inert
    }
  }
}

Status MatrixStore::WriteSnapshot(const Snapshot& snapshot) {
  // A full checkpoint targets the ACTIVE journal's generation: when an
  // interrupted compaction left the journal rotated to gen+1, writing the
  // checkpoint there (and publishing a manifest) completes the rotation
  // instead of fighting it. At generation 0 this is the legacy layout —
  // snapshot.dpe, no manifest.
  const uint64_t target = journal_gen_;
  DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPathForGen(target), snapshot));
  if (target > 0) {
    CompactionManifest manifest;
    manifest.generation = target;
    DPE_RETURN_NOT_OK(WriteManifest(manifest));
  }
  gen_ = target;
  manifest_ok_ = true;
  ++mutation_epoch_;  // supersedes any in-flight compaction of older state
  SweepOldGenerations(gen_);
  return Status::OK();
}

Result<Snapshot> MatrixStore::ReadSnapshot() const {
  DPE_ASSIGN_OR_RETURN(
      std::string payload,
      ReadFramedFile(SnapshotPath(), kSnapshotMagic, kSnapshotFormatVersion));
  return DecodeSnapshotPayload(payload);
}

Status ApplyRowRecord(const JournalRecord& record,
                      std::map<std::string, Triangle>* triangles) {
  Triangle& triangle = (*triangles)[record.measure];
  if (record.row < triangle.rows) return Status::OK();  // already held
  if (record.row > triangle.rows) {
    return Corrupt("journal row " + std::to_string(record.row) + " of '" +
                   record.measure + "' leaves a gap after " +
                   std::to_string(triangle.rows) + " rows");
  }
  triangle.cells.insert(triangle.cells.end(), record.distances.begin(),
                        record.distances.end());
  triangle.rows += 1;
  return Status::OK();
}

// -- Journal -----------------------------------------------------------------

Status MatrixStore::AppendRecords(const std::vector<JournalRecord>& records) {
  if (records.empty()) return Status::OK();
  std::string frame;
  // A fresh journal starts with the same magic/version prologue as the
  // framed files (but no length/checksum — records carry their own).
  constexpr uintmax_t kUnknownSize = static_cast<uintmax_t>(-1);
  std::error_code ec;
  const bool existed = fs::exists(JournalPath(), ec);
  uintmax_t old_size = 0;
  if (existed) {
    old_size = fs::file_size(JournalPath(), ec);
    if (ec) old_size = kUnknownSize;  // unknown: rollback must not "grow"
  }
  if (!existed) frame = JournalPrologue();
  for (const JournalRecord& record : records) {
    Writer payload;
    EncodeJournalRecord(record, &payload);
    AppendRecord(payload.buffer(), &frame);
  }

  std::ofstream out(JournalPath(), std::ios::binary | std::ios::app);
  if (!out) {
    return Status::Internal("matrix store: cannot open journal " +
                            JournalPath());
  }
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (out && fsync_policy_ == FsyncPolicy::kAlways) {
    // kAlways: the record must survive power loss once this returns, not
    // just process death. Close first so libc buffers cannot outlive the
    // sync; and when this append CREATED the journal, sync the directory
    // too — a durable file behind a lost dirent is still a lost file.
    out.close();
    DPE_RETURN_NOT_OK(SyncPath(JournalPath()));
    if (!existed) DPE_RETURN_NOT_OK(SyncPath(dir_));
    JournalBytesWritten().Increment(frame.size());
    JournalRecordsAppended().Increment(records.size());
    return Status::OK();
  }
  if (!out) {
    // Roll the partial append back (best effort): torn bytes left at the
    // tail would be buried mid-stream by a later successful append,
    // turning a transient write failure into permanent corruption.
    out.close();
    if (!existed) {
      fs::remove(JournalPath(), ec);
    } else if (old_size != kUnknownSize) {
      fs::resize_file(JournalPath(), old_size, ec);
    }
    return Status::Internal("matrix store: short write to journal " +
                            JournalPath());
  }
  JournalBytesWritten().Increment(frame.size());
  JournalRecordsAppended().Increment(records.size());
  return Status::OK();
}

Status MatrixStore::AppendQuery(uint32_t index, const std::string& sql) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kQueryAppended;
  record.index = index;
  record.sql = sql;
  return AppendRecords({std::move(record)});
}

Status MatrixStore::AppendRow(const std::string& measure, uint32_t row,
                              std::span<const double> distances) {
  return AppendRows(measure, row, row + 1, distances);
}

Status MatrixStore::AppendRows(const std::string& measure, uint32_t row_begin,
                               uint32_t row_end,
                               std::span<const double> packed) {
  if (row_begin > row_end ||
      packed.size() != TriangleCells(row_end) - TriangleCells(row_begin)) {
    return Status::InvalidArgument(
        "matrix store: rows [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ") do not hold " +
        std::to_string(packed.size()) + " cells");
  }
  std::vector<JournalRecord> records(row_end - row_begin);
  size_t offset = 0;
  for (uint32_t row = row_begin; row < row_end; ++row) {
    JournalRecord& record = records[row - row_begin];
    record.kind = JournalRecord::Kind::kRowComputed;
    record.measure = measure;
    record.row = row;
    record.distances.assign(packed.begin() + offset,
                            packed.begin() + offset + row);
    offset += row;
  }
  return AppendRecords(records);
}

Status MatrixStore::ReadJournalFile(const std::string& path,
                                    bool recover_torn_tail,
                                    JournalRecovery* recovery) const {
  Result<std::string> read = ReadFileBytes(path);
  if (read.status().code() == StatusCode::kNotFound) {
    return Status::OK();  // no journal = no records
  }
  DPE_RETURN_NOT_OK(read.status());
  const std::string& data = *read;
  JournalBytesRead().Increment(data.size());
  if (data.size() < 8 && recover_torn_tail) {
    // A crash can die inside the very first buffered write, before even the
    // 8-byte magic/version prologue is complete. Recovery treats that as an
    // empty journal and clears the stub so future appends start clean. The
    // prologue is only ever written as part of an append, so the in-flight
    // record was lost too — count it like any other torn tail.
    std::error_code ec;
    fs::remove(path, ec);
    recovery->tail_truncated = true;
    recovery->dropped_records += 1;
    recovery->dropped_bytes += data.size();
    JournalTornTailRecoveries().Increment();
    JournalDroppedRecords().Increment();
    JournalDroppedBytes().Increment(data.size());
    return Status::OK();
  }
  DPE_ASSIGN_OR_RETURN(RecordScan scan, ScanJournalBytes(data, path));
  if (scan.torn_tail) {
    if (!recover_torn_tail) {
      return Corrupt("torn journal tail in " + path + " (crash mid-append?)");
    }
    // Truncate the torn bytes away so future appends extend an intact
    // stream instead of burying garbage mid-file.
    std::error_code ec;
    fs::resize_file(path, 8 + scan.valid_bytes, ec);
    if (ec) {
      return Status::Internal("matrix store: cannot truncate torn journal " +
                              path);
    }
    const uint64_t dropped = data.size() - (8 + scan.valid_bytes);
    recovery->tail_truncated = true;
    recovery->dropped_records += 1;  // a tear is one half-flushed record
    recovery->dropped_bytes += dropped;
    JournalTornTailRecoveries().Increment();
    JournalDroppedRecords().Increment();
    JournalDroppedBytes().Increment(dropped);
  }
  recovery->records.reserve(recovery->records.size() + scan.records.size());
  for (const std::string& payload : scan.records) {
    DPE_ASSIGN_OR_RETURN(JournalRecord record, DecodeJournalRecord(payload));
    recovery->records.push_back(std::move(record));
  }
  return Status::OK();
}

Result<JournalRecovery> MatrixStore::ReadJournalImpl(
    bool recover_torn_tail) const {
  JournalRecovery recovery;
  if (journal_gen_ > gen_) {
    // A compaction is (or was) in flight: the frozen gen journal replays
    // first, then the active gen+1 journal on top — append order.
    DPE_RETURN_NOT_OK(ReadJournalFile(JournalPathForGen(gen_),
                                      recover_torn_tail, &recovery));
  }
  DPE_RETURN_NOT_OK(ReadJournalFile(JournalPathForGen(journal_gen_),
                                    recover_torn_tail, &recovery));
  return recovery;
}

Result<std::vector<JournalRecord>> MatrixStore::ReadJournal() const {
  DPE_ASSIGN_OR_RETURN(JournalRecovery recovery,
                       ReadJournalImpl(/*recover_torn_tail=*/false));
  return std::move(recovery.records);
}

Result<JournalRecovery> MatrixStore::RecoverJournal() {
  return ReadJournalImpl(/*recover_torn_tail=*/true);
}

Status MatrixStore::TruncateJournal() {
  for (uint64_t g : {gen_, gen_ + 1}) {
    std::error_code ec;
    fs::remove(JournalPathForGen(g), ec);
    if (ec) {
      return Status::Internal("matrix store: cannot remove journal " +
                              JournalPathForGen(g));
    }
  }
  journal_gen_ = gen_;
  ++mutation_epoch_;  // any in-flight fold of those records is now stale
  return Status::OK();
}

uint64_t MatrixStore::JournalBytes() const {
  uint64_t total = 0;
  for (uint64_t g = gen_; g <= journal_gen_; ++g) {
    std::error_code ec;
    uintmax_t size = fs::file_size(JournalPathForGen(g), ec);
    if (!ec) total += size;
  }
  return total;
}

// -- Online compaction ---------------------------------------------------------

Result<CompactionPlan> MatrixStore::BeginCompaction() {
  CompactionPlan plan;
  plan.from_gen = gen_;
  plan.to_gen = gen_ + 1;
  plan.epoch = mutation_epoch_;
  std::error_code ec;
  const uintmax_t frozen_bytes = fs::file_size(JournalPathForGen(gen_), ec);
  if (ec || frozen_bytes <= 8) {  // absent or prologue-only: nothing to fold
    return plan;
  }
  plan.has_work = true;
  plan.journal_cut_bytes = frozen_bytes;
  // Rotate: from here on appends go to the gen+1 journal, freezing the gen
  // journal for the fold. Pure in-memory state — a crash right after this
  // loses nothing (recovery replays both journals over snapshot.<gen>).
  // Idempotent when a crashed compaction already rotated us.
  journal_gen_ = gen_ + 1;
  common::FaultInjector::Global().Fire("store.compaction.rotate");
  return plan;
}

Result<Snapshot> MatrixStore::FoldFrozen(const CompactionPlan& plan) const {
  Snapshot folded;
  Result<std::string> payload =
      ReadFramedFile(SnapshotPathForGen(plan.from_gen), kSnapshotMagic,
                     kSnapshotFormatVersion);
  if (payload.ok()) {
    DPE_ASSIGN_OR_RETURN(folded, DecodeSnapshotPayload(*payload));
  } else if (payload.status().code() != StatusCode::kNotFound) {
    return payload.status();
  }

  // The frozen journal is read tolerantly and WITHOUT mutating the file —
  // this runs off-lock while appends continue elsewhere. A torn tail is
  // dropped silently: those bytes belong to an append that never
  // acknowledged, and the fold's output supersedes the frozen file anyway.
  const std::string path = JournalPathForGen(plan.from_gen);
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok() || data->size() < 8) {
    if (data.ok() || data.status().code() == StatusCode::kNotFound) {
      return folded;
    }
    return data.status();
  }
  JournalBytesRead().Increment(data->size());
  DPE_ASSIGN_OR_RETURN(RecordScan scan, ScanJournalBytes(*data, path));
  for (const std::string& payload_bytes : scan.records) {
    DPE_ASSIGN_OR_RETURN(JournalRecord record,
                         DecodeJournalRecord(payload_bytes));
    switch (record.kind) {
      case JournalRecord::Kind::kQueryAppended:
        if (record.index < folded.queries.size()) break;  // replayed duplicate
        if (record.index > folded.queries.size()) {
          return Corrupt("journal query index " +
                         std::to_string(record.index) + " leaves a gap over " +
                         std::to_string(folded.queries.size()) +
                         " snapshot queries");
        }
        folded.queries.push_back(std::move(record.sql));
        break;
      case JournalRecord::Kind::kRowComputed:
        DPE_RETURN_NOT_OK(ApplyRowRecord(record, &folded.triangles));
        break;
    }
  }
  return folded;
}

Result<bool> MatrixStore::PublishCompaction(const CompactionPlan& plan,
                                            const Snapshot& folded) {
  if (!plan.has_work) return false;
  if (plan.epoch != mutation_epoch_) {
    // A full checkpoint (or truncation) superseded this fold while it ran.
    // Its state already covers everything the fold covered — drop it.
    return false;
  }
  if (plan.from_gen != gen_) {
    // A concurrent cycle planned from the same generation published first
    // and swept the files this fold read; its snapshot supersedes ours.
    return false;
  }
  auto& faults = common::FaultInjector::Global();
  faults.Fire("store.compaction.before_snapshot");
  DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPathForGen(plan.to_gen),
                                        folded));
  faults.Fire("store.compaction.after_snapshot");
  CompactionManifest manifest;
  manifest.generation = plan.to_gen;
  manifest.journal_cut_offset = plan.journal_cut_bytes;
  DPE_RETURN_NOT_OK(WriteManifest(manifest));
  // The manifest rename is the commit point: before it, recovery resolves
  // to from_gen (both journals replay); after it, to to_gen (the frozen
  // journal's records live in snapshot.<to_gen>).
  faults.Fire("store.compaction.after_manifest");
  gen_ = plan.to_gen;
  manifest_ok_ = true;
  faults.Fire("store.compaction.before_cleanup");
  SweepOldGenerations(gen_);
  CompactionPublishes().Increment();
  return true;
}

// -- Scrub ---------------------------------------------------------------------

Result<ScrubReport> MatrixStore::Scrub() {
  ScrubReport report;
  ScrubRuns().Increment();

  if (!manifest_ok_) {
    // gen_ was already re-resolved from the highest readable snapshot at
    // open; persisting it makes the repair durable.
    CompactionManifest manifest;
    manifest.generation = gen_;
    DPE_RETURN_NOT_OK(WriteManifest(manifest));
    manifest_ok_ = true;
    report.manifest_rebuilt = true;
    ScrubRewrites().Increment();
  }

  // Rows each salvaged triangle holds — what the journal's row records
  // must extend contiguously. Unknown (nullopt) when the snapshot is absent
  // or unreadable: then only CRC damage is quarantined from the journal.
  std::optional<std::map<std::string, uint64_t>> rows;
  Result<SalvagedFrame> frame = ReadFramedFileSalvage(
      SnapshotPath(), kSnapshotMagic, kSnapshotFormatVersion);
  if (frame.ok()) {
    SnapshotSalvageResult salvage = SalvageSnapshotPayload(frame->payload);
    report.snapshot_chunks_checked = salvage.chunks_checked;
    if (!salvage.core_ok) {
      // The query log is source data — it cannot be recomputed, so a
      // damaged core is not salvageable. Leave the file alone; strict
      // loads keep failing typed (never a wrong matrix).
      report.snapshot_unreadable = true;
    } else {
      report.snapshot_chunks_quarantined = salvage.chunks_quarantined;
      report.cells_quarantined = salvage.cells_quarantined;
      rows.emplace();
      for (const auto& [name, triangle] : salvage.snapshot.triangles) {
        (*rows)[name] = triangle.rows;
      }
      if (!frame->crc_ok || salvage.chunks_quarantined > 0 ||
          salvage.cells_quarantined > 0) {
        DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPath(),
                                              salvage.snapshot));
        report.snapshot_rewritten = true;
        ScrubRewrites().Increment();
      }
    }
  } else if (frame.status().code() == StatusCode::kNotFound) {
    rows.emplace();
  } else {
    report.snapshot_unreadable = true;  // structural frame damage
  }

  for (uint64_t g = gen_; g <= journal_gen_; ++g) {
    const std::string path = JournalPathForGen(g);
    Result<std::string> read = ReadFileBytes(path);
    if (!read.ok()) continue;
    const std::string& data = *read;
    JournalBytesRead().Increment(data.size());
    bool prologue_ok = data.size() >= 8;
    if (prologue_ok) {
      Reader header(data);
      Result<uint32_t> magic = header.ReadU32();
      Result<uint32_t> version = header.ReadU32();
      prologue_ok = magic.ok() && *magic == kJournalMagic && version.ok() &&
                    *version == kJournalFormatVersion;
    }
    if (!prologue_ok) {
      // With a corrupt prologue the record framing cannot be trusted at
      // all; the whole file is quarantined. Its records were deltas on top
      // of the snapshot — losing them degrades, replaying garbage corrupts.
      std::error_code ec;
      fs::remove(path, ec);
      report.journal_rewritten = true;
      report.journal_bytes_quarantined += data.size();
      ScrubRewrites().Increment();
      continue;
    }
    SalvageScan scan = ScanRecordsSalvage(std::string_view(data).substr(8));
    std::vector<std::string> keep;
    keep.reserve(scan.records.size());
    uint64_t quarantined_records = scan.quarantined_records;
    uint64_t quarantined_bytes = scan.quarantined_bytes + scan.torn_bytes;
    for (std::string& payload : scan.records) {
      // CRC-passing payloads still pass the decode gate: a flip that lands
      // in both the payload and its checksum consistently is astronomically
      // unlikely, but a malformed record must never be rewritten as "good".
      // A row that no longer extends its triangle contiguously (the
      // snapshot was truncated, or an earlier row was quarantined) goes
      // too, so the strict load after the scrub never meets a gap.
      Result<JournalRecord> record = DecodeJournalRecord(payload);
      bool usable = record.ok();
      if (usable && rows.has_value() &&
          record->kind == JournalRecord::Kind::kRowComputed) {
        uint64_t& held = (*rows)[record->measure];
        if (record->row > held) {
          usable = false;
          report.cells_quarantined += record->row;
        } else if (record->row == held) {
          held += 1;
        }
      }
      if (usable) {
        keep.push_back(std::move(payload));
      } else {
        quarantined_records += 1;
        quarantined_bytes += payload.size() + 8;
      }
    }
    report.journal_records_checked += keep.size() + quarantined_records;
    if (quarantined_records == 0 && !scan.torn_tail) continue;  // clean file
    std::string rewritten = JournalPrologue();
    for (const std::string& payload : keep) AppendRecord(payload, &rewritten);
    DPE_RETURN_NOT_OK(WriteFileAtomic(path, rewritten,
                                      fsync_policy_ != FsyncPolicy::kNever));
    report.journal_rewritten = true;
    report.journal_records_quarantined += quarantined_records;
    report.journal_bytes_quarantined += quarantined_bytes;
    ScrubJournalRecordsQuarantined().Increment(quarantined_records);
    ScrubRewrites().Increment();
  }
  ScrubCellsQuarantined().Increment(report.cells_quarantined);

  if (report.cells_quarantined > 0) {
    ++mutation_epoch_;  // the rewritten snapshot supersedes in-flight folds
  }
  return report;
}

// -- Shards ------------------------------------------------------------------

Result<uint64_t> ShardCellCount(const ShardManifest& manifest) {
  return common::RangeCellCount(manifest.n, manifest.block,
                                manifest.tile_begin, manifest.tile_end);
}

/// Walks the manifest's (clamped) tile range in schedule order — the exact
/// traversal both the sparse encoder and the merge coordinator use, so
/// cells[k] always means "the k-th owned cell of this shard". Uses the
/// analytic range walker: no O(block_count²) schedule vector per shard.
template <typename Fn>
static void ForEachOwnedCell(const ShardManifest& manifest, Fn&& fn) {
  common::ForEachTileInRange(
      manifest.n, manifest.block, manifest.tile_begin, manifest.tile_end,
      [&](size_t bi, size_t bj) {
        common::ForEachTileCell(manifest.n, manifest.block, bi, bj, fn);
      });
}

Status MatrixStore::WriteShardCells(const ShardManifest& manifest,
                                    const std::vector<double>& cells) {
  if (std::string defect = ShardManifestDefect(manifest); !defect.empty()) {
    return Status::InvalidArgument("matrix store: " + defect);
  }
  DPE_ASSIGN_OR_RETURN(uint64_t expected, ShardCellCount(manifest));
  if (cells.size() != expected) {
    return Status::InvalidArgument(
        "matrix store: shard carries " + std::to_string(cells.size()) +
        " cells but its manifest's tile range owns " +
        std::to_string(expected));
  }
  Writer w;
  EncodeShardManifest(manifest, &w);
  w.PutU64(cells.size());
  w.PutDoubles(cells);
  return WriteFramedFile(
      ShardPath(manifest.matrix, manifest.shard_index, manifest.shard_count),
      kShardMagic, w.buffer(), kShardFormatVersion,
      fsync_policy_ != FsyncPolicy::kNever);
}

Status MatrixStore::WriteShard(const ShardManifest& manifest,
                               const distance::DistanceMatrix& partial) {
  if (std::string defect = ShardManifestDefect(manifest); !defect.empty()) {
    return Status::InvalidArgument("matrix store: " + defect);
  }
  if (partial.size() != manifest.n) {
    return Status::InvalidArgument(
        "matrix store: shard partial has n = " +
        std::to_string(partial.size()) + " but the manifest declares " +
        std::to_string(manifest.n));
  }
  DPE_ASSIGN_OR_RETURN(uint64_t expected, ShardCellCount(manifest));
  std::vector<double> cells;
  cells.reserve(expected);
  ForEachOwnedCell(manifest, [&](size_t i, size_t j) {
    cells.push_back(partial.AtUnchecked(i, j));
  });
  return WriteShardCells(manifest, cells);
}

Result<ShardFile> MatrixStore::ReadShard(const std::string& matrix,
                                         uint32_t shard_index,
                                         uint32_t shard_count) const {
  const std::string path = ShardPath(matrix, shard_index, shard_count);
  DPE_ASSIGN_OR_RETURN(std::string payload,
                       ReadFramedFile(path, kShardMagic, kShardFormatVersion));
  Reader r(payload);
  ShardFile shard;
  DPE_ASSIGN_OR_RETURN(shard.manifest, DecodeShardManifest(&r));
  if (shard.manifest.matrix != matrix ||
      shard.manifest.shard_index != shard_index ||
      shard.manifest.shard_count != shard_count) {
    return Corrupt("shard file " + path + " declares shard " +
                   std::to_string(shard.manifest.shard_index) + "/" +
                   std::to_string(shard.manifest.shard_count) +
                   " of matrix '" + shard.manifest.matrix + "'");
  }
  Result<uint64_t> expected = ShardCellCount(shard.manifest);
  if (!expected.ok()) {  // implausible manifest geometry (e.g. block 0)
    return Corrupt("shard file " + path + ": " +
                   expected.status().message());
  }

  // Payload: u64 cell count + cells in schedule order. The count is
  // validated against BOTH the manifest-derived count and the bytes
  // actually present before anything is allocated.
  DPE_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  if (count != *expected) {
    return Corrupt("shard file " + path + " declares " +
                   std::to_string(count) +
                   " cells but its manifest's tile range owns " +
                   std::to_string(*expected));
  }
  if (count != r.remaining() / 8 || r.remaining() % 8 != 0) {
    return Corrupt("shard file " + path + " cell payload is " +
                   std::to_string(r.remaining()) + " bytes for " +
                   std::to_string(count) + " cells");
  }
  shard.cells.resize(count);
  DPE_RETURN_NOT_OK(r.ReadDoubles(shard.cells));
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return shard;
}

bool MatrixStore::HasShard(const std::string& matrix, uint32_t shard_index,
                           uint32_t shard_count) const {
  std::error_code ec;
  return fs::exists(ShardPath(matrix, shard_index, shard_count), ec);
}

Status MatrixStore::RemoveShard(const std::string& matrix,
                                uint32_t shard_index, uint32_t shard_count) {
  const std::string path = ShardPath(matrix, shard_index, shard_count);
  std::error_code ec;
  fs::remove(path, ec);  // remove() is false-without-error when absent
  if (ec) {
    return Status::Internal("store: cannot remove shard file " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

}  // namespace dpe::store
