// rgpdctl — an interactive operator console for rgpdOS.
//
// Reads commands from stdin (or runs a scripted demo when stdin is not a
// list of commands). Shows the operator-facing workflow end to end:
//
//   declare <inline type source ...>   declare PD types (Listing-1 DSL)
//   types                              list declared types
//   put <type> <subject> <v1> <v2>...  store a record (default membrane)
//   get <record-id>                    DED-side record dump
//   subjects                           subject tree summary
//   revoke <record-id> <purpose>       withdraw consent (copy-group wide)
//   access <subject>                   right of access (JSON report)
//   forget <subject>                   right to be forgotten
//   recover <record-id>                authority-side envelope recovery
//   scavenge                           TTL sweep (crypto-erase expired PD)
//   audit                              sentinel decisions + breach sweep
//   log                                processing log
//   report                             sensitivity segregation report
//   help / quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/rgpdos.hpp"
#include "dsl/lint.hpp"
#include "dsl/parser.hpp"
#include "sentinel/breach.hpp"

using namespace rgpdos;

namespace {

constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

class Console {
 public:
  explicit Console(core::RgpdOs* os) : os_(os) {}

  /// Execute one command line; returns false on "quit".
  bool Execute(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "declare") {
      std::string source;
      std::getline(in, source);
      // Privacy-by-design lint before the declaration lands.
      if (auto program = dsl::Parse(source); program.ok()) {
        for (const dsl::TypeDecl& decl : program->types) {
          for (const dsl::LintWarning& w : dsl::LintType(decl)) {
            std::printf("  lint[%s]: %s\n",
                        std::string(dsl::LintRuleName(w.rule)).c_str(),
                        w.detail.c_str());
          }
        }
      }
      Report(os_->DeclareTypes(source).status(), "declared");
    } else if (command == "types") {
      for (const std::string& name : os_->dbfs().TypeNames()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (command == "put") {
      Put(in);
    } else if (command == "get") {
      Get(in);
    } else if (command == "subjects") {
      std::printf("  %zu subjects, %zu records\n",
                  os_->dbfs().subject_count(), os_->dbfs().record_count());
    } else if (command == "revoke") {
      std::uint64_t record = 0;
      std::string purpose;
      in >> record >> purpose;
      auto rec = os_->dbfs().Get(kDed, record);
      if (!rec.ok()) {
        Report(rec.status(), "");
        return true;
      }
      Report(os_->builtins().RevokeConsent(
                 core::PdRef{record, rec->type_name}, purpose),
             "consent revoked group-wide");
    } else if (command == "access") {
      std::uint64_t subject = 0;
      in >> subject;
      auto report = os_->RightOfAccess(subject);
      if (report.ok()) {
        std::printf("%s\n", report->c_str());
      } else {
        Report(report.status(), "");
      }
    } else if (command == "forget") {
      std::uint64_t subject = 0;
      in >> subject;
      auto erased = os_->RightToBeForgotten(subject);
      if (erased.ok()) {
        std::printf("  crypto-erased %zu records\n", *erased);
      } else {
        Report(erased.status(), "");
      }
    } else if (command == "recover") {
      std::uint64_t record = 0;
      in >> record;
      Recover(record);
    } else if (command == "scavenge") {
      Scavenge();
    } else if (command == "audit") {
      Audit();
    } else if (command == "log") {
      for (const core::LogEntry& e : os_->processing_log().entries()) {
        std::printf("  [%llu] %s purpose=%s subject=%llu record=%llu %s\n",
                    static_cast<unsigned long long>(e.seq),
                    e.processing.c_str(), e.purpose.c_str(),
                    static_cast<unsigned long long>(e.subject_id),
                    static_cast<unsigned long long>(e.record_id),
                    std::string(core::LogOutcomeName(e.outcome)).c_str());
      }
      std::printf("  chain intact: %s\n",
                  os_->processing_log().VerifyChain() ? "yes" : "NO");
    } else if (command == "report") {
      auto report =
          os_->dbfs().ReportSensitivity(sentinel::Domain::kSysadmin);
      if (!report.ok()) {
        Report(report.status(), "");
        return true;
      }
      std::printf("  low=%zu medium=%zu high=%zu\n", report->by_level[0],
                  report->by_level[1], report->by_level[2]);
    } else {
      std::printf("  unknown command '%s' (try: help)\n", command.c_str());
    }
    return true;
  }

 private:
  static void Help() {
    std::printf(
        "  declare <dsl> | types | put <type> <subject> <values...> |\n"
        "  get <id> | subjects | revoke <id> <purpose> | access <subj> |\n"
        "  forget <subj> | recover <id> | scavenge | audit | log |\n"
        "  report | quit\n");
  }

  void Report(const Status& status, const char* ok_message) {
    if (status.ok()) {
      if (ok_message[0] != '\0') std::printf("  ok: %s\n", ok_message);
    } else {
      std::printf("  %s\n", status.ToString().c_str());
    }
  }

  void Put(std::istringstream& in) {
    std::string type_name;
    std::uint64_t subject = 0;
    in >> type_name >> subject;
    auto type = os_->dbfs().GetType(sentinel::Domain::kSysadmin, type_name);
    if (!type.ok()) {
      Report(type.status(), "");
      return;
    }
    db::Row row;
    for (const db::FieldDef& field : (*type)->fields) {
      std::string token;
      if (!(in >> token)) {
        std::printf("  missing value for field '%s'\n", field.name.c_str());
        return;
      }
      switch (field.type) {
        case db::ValueType::kInt:
          row.emplace_back(static_cast<std::int64_t>(std::stoll(token)));
          break;
        case db::ValueType::kDouble:
          row.emplace_back(std::stod(token));
          break;
        case db::ValueType::kBool:
          row.emplace_back(token == "true");
          break;
        default:
          row.emplace_back(token);
          break;
      }
    }
    membrane::Membrane m =
        (*type)->DefaultMembrane(subject, os_->clock().Now());
    auto id = os_->dbfs().Put(kDed, subject, type_name, row, std::move(m));
    if (id.ok()) {
      std::printf("  record %llu stored (membrane attached)\n",
                  static_cast<unsigned long long>(*id));
    } else {
      Report(id.status(), "");
    }
  }

  void Get(std::istringstream& in) {
    std::uint64_t record_id = 0;
    in >> record_id;
    auto record = os_->dbfs().Get(kDed, record_id);
    if (!record.ok()) {
      Report(record.status(), "");
      return;
    }
    std::printf("  record %llu type=%s subject=%llu erased=%s\n",
                static_cast<unsigned long long>(record->record_id),
                record->type_name.c_str(),
                static_cast<unsigned long long>(record->subject_id),
                record->erased ? "true" : "false");
    auto type = os_->dbfs().GetType(kDed, record->type_name);
    if (type.ok() && !record->erased) {
      for (std::size_t i = 0; i < (*type)->fields.size(); ++i) {
        std::printf("    %s = %s\n", (*type)->fields[i].name.c_str(),
                    record->row[i].ToDisplayString().c_str());
      }
    }
    std::printf("    consents:");
    for (const auto& [purpose, consent] : record->membrane.consents) {
      std::printf(" %s=%s", purpose.c_str(),
                  consent.kind == membrane::ConsentKind::kAll    ? "all"
                  : consent.kind == membrane::ConsentKind::kNone ? "none"
                                                                 : consent
                                                                       .view
                                                                       .c_str());
    }
    std::printf("\n");
  }

  void Recover(std::uint64_t record_id) {
    auto envelope = os_->dbfs().GetEnvelope(kDed, record_id);
    if (!envelope.ok()) {
      Report(envelope.status(), "");
      return;
    }
    auto plaintext = os_->authority().Recover(*envelope);
    if (!plaintext.ok()) {
      Report(plaintext.status(), "");
      return;
    }
    std::printf("  authority recovered %zu plaintext bytes\n",
                plaintext->size());
  }

  /// One full retention-sweeper cycle: every record past its TTL is
  /// crypto-erased under the authority key.
  void Scavenge() {
    std::uint64_t erased = 0;
    for (;;) {
      auto report = os_->retention().SweepOnce();
      if (!report.ok()) {
        Report(report.status(), "");
        return;
      }
      erased += report->erased;
      if (report->wrapped) break;
    }
    std::printf("  scavenged %llu expired records\n",
                static_cast<unsigned long long>(erased));
  }

  void Audit() {
    std::printf("  sentinel: %llu allowed, %llu denied\n",
                static_cast<unsigned long long>(
                    os_->audit().allowed_count()),
                static_cast<unsigned long long>(os_->audit().denied_count()));
    const auto breaches =
        sentinel::DetectBreaches(os_->audit(), sentinel::BreachPolicy{});
    for (const auto& finding : breaches) {
      std::printf("  BREACH: %s\n", finding.notification.c_str());
    }
    if (breaches.empty()) std::printf("  no denial bursts\n");
  }

  core::RgpdOs* os_;
};

// The scripted demo run when stdin has no commands (e.g. CI).
constexpr const char* kDemoScript[] = {
    "declare type user { fields { name: string, year: int }; "
    "consent { analytics: all }; origin: subject; sensitivity: high; }",
    "types",
    "put user 1 alice 1990",
    "put user 2 bob 1985",
    "subjects",
    "get 1",
    "revoke 1 analytics",
    "get 1",
    "access 2",
    "forget 2",
    "recover 2",
    "report",
    "audit",
    "log",
};

}  // namespace

int main(int argc, char** argv) {
  // Crypto-erasing expiry keeps `recover <id>` working after `scavenge`.
  core::BootConfig config;
  config.retention_crypto_erase = true;
  auto booted = core::RgpdOs::Boot(config);
  if (!booted.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 booted.status().ToString().c_str());
    return 1;
  }
  Console console(booted->get());

  const bool interactive = argc > 1 && std::string(argv[1]) == "-i";
  if (interactive) {
    std::printf("rgpdctl — type 'help'\n");
    std::string line;
    while (std::printf("rgpdos> "), std::getline(std::cin, line)) {
      if (!console.Execute(line)) break;
    }
    return 0;
  }
  // Scripted demo.
  for (const char* line : kDemoScript) {
    std::printf("rgpdos> %s\n", line);
    console.Execute(line);
  }
  return 0;
}
