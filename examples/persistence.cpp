// Persistence — DBFS across process restarts.
//
// rgpdOS state must survive the machine: this example runs two phases in
// one process against a file-backed block device. Phase 1 formats DBFS,
// declares a type and stores records; phase 2 mounts the SAME device
// image from scratch (fresh InodeStore, fresh Dbfs, journal replay) and
// proves the schema tree, subject tree, membranes and record ids all
// came back — then exercises a simulated crash (journal-committed write
// without checkpoint) and recovers it on the next mount.
//
// Usage: persistence [image-path]
// (default image: /tmp/rgpdos_persistence_demo.img; removed on success)
#include <cstdio>

#include "blockdev/file_block_device.hpp"
#include "dbfs/dbfs.hpp"
#include "dsl/parser.hpp"

using namespace rgpdos;

namespace {

constexpr std::string_view kType = R"(
type note {
  fields { author: string, text: string };
  consent { reading: all };
  origin: subject;
  sensitivity: medium;
}
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string image =
      argc > 1 ? argv[1] : "/tmp/rgpdos_persistence_demo.img";
  std::remove(image.c_str());
  SystemClock clock;
  sentinel::AuditSink audit;
  sentinel::Sentinel sentinel(sentinel::SecurityPolicy::RgpdDefault(),
                              &clock, &audit);
  std::printf("== DBFS persistence demo (%s) ==\n", image.c_str());

  dbfs::RecordId kept_record = 0;

  // ---- phase 1: format, populate, unmount ---------------------------------
  {
    auto device = blockdev::FileBlockDevice::Open(image, 4096, 2048);
    if (!device.ok()) return Fail(device.status());
    inodefs::InodeStore::Options options;
    options.inode_count = 256;
    options.journal_blocks = 128;
    auto store = inodefs::InodeStore::Format(device->get(), options, &clock);
    if (!store.ok()) return Fail(store.status());
    auto fs = dbfs::Dbfs::Format(store->get(), &sentinel, &clock);
    if (!fs.ok()) return Fail(fs.status());

    auto decl = dsl::ParseType(kType);
    if (!decl.ok()) return Fail(decl.status());
    if (Status s = (*fs)->CreateType(sentinel::Domain::kSysadmin, *decl);
        !s.ok()) {
      return Fail(s);
    }
    for (std::uint64_t subject = 1; subject <= 3; ++subject) {
      membrane::Membrane m = decl->DefaultMembrane(subject, clock.Now());
      auto id = (*fs)->Put(
          sentinel::Domain::kDed, subject, "note",
          db::Row{db::Value("author_" + std::to_string(subject)),
                  db::Value("a durable note from subject " +
                            std::to_string(subject))},
          std::move(m));
      if (!id.ok()) return Fail(id.status());
      kept_record = *id;
    }
    if (Status s = (*store)->Sync(); !s.ok()) return Fail(s);
    std::printf("phase 1: stored %zu records for %zu subjects, unmounted\n",
                (*fs)->record_count(), (*fs)->subject_count());
  }  // device closes: "power off"

  // ---- phase 2: remount and verify -----------------------------------------
  {
    auto device = blockdev::FileBlockDevice::Open(image, 4096, 2048);
    if (!device.ok()) return Fail(device.status());
    auto store = inodefs::InodeStore::Mount(device->get(), &clock);
    if (!store.ok()) return Fail(store.status());
    auto fs = dbfs::Dbfs::Mount(store->get(), &sentinel, &clock);
    if (!fs.ok()) return Fail(fs.status());
    std::printf("phase 2: mounted — %zu records, %zu subjects, types:",
                (*fs)->record_count(), (*fs)->subject_count());
    for (const std::string& name : (*fs)->TypeNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    auto record = (*fs)->Get(sentinel::Domain::kDed, kept_record);
    if (!record.ok()) return Fail(record.status());
    std::printf("phase 2: record %llu -> %s: \"%s\" (ttl=%lld, origin=%s)\n",
                static_cast<unsigned long long>(kept_record),
                record->row[0].AsString()->c_str(),
                record->row[1].AsString()->c_str(),
                static_cast<long long>(record->membrane.ttl),
                std::string(membrane::OriginName(record->membrane.origin))
                    .c_str());

    // Simulated crash: the update reaches the journal, never the data
    // region.
    (*store)->SetCrashBeforeCheckpoint(true);
    if (Status s = (*fs)->UpdateRow(
            sentinel::Domain::kDed, kept_record,
            db::Row{db::Value(std::string("author_3")),
                    db::Value(std::string("EDIT SURVIVED THE CRASH"))});
        !s.ok()) {
      return Fail(s);
    }
    std::printf("phase 2: wrote an update, then 'crashed' before the "
                "checkpoint\n");
  }

  // ---- phase 3: crash recovery ----------------------------------------------
  {
    auto device = blockdev::FileBlockDevice::Open(image, 4096, 2048);
    if (!device.ok()) return Fail(device.status());
    auto store = inodefs::InodeStore::Mount(device->get(), &clock);
    if (!store.ok()) return Fail(store.status());
    auto fs = dbfs::Dbfs::Mount(store->get(), &sentinel, &clock);
    if (!fs.ok()) return Fail(fs.status());
    auto record = (*fs)->Get(sentinel::Domain::kDed, kept_record);
    if (!record.ok()) return Fail(record.status());
    std::printf("phase 3: journal replay recovered the update: \"%s\"\n",
                record->row[1].AsString()->c_str());
  }

  std::remove(image.c_str());
  std::printf("\npersistence demo complete.\n");
  return 0;
}
