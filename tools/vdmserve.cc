// vdmserve — standalone wire server over one vdmqo Database
// (DESIGN.md §16).
//
//   $ VDM_SERVER_PORT=7788 ./tools/vdmserve --load tpch --scale 1
//   vdmserve: serving tpch (scale 1.0) on 127.0.0.1:7788 ...
//
// Loads a workload, starts the multi-session front end, and serves until
// SIGINT/SIGTERM. Clients speak the length-prefixed protocol of
// src/server/wire.h (vdmload and the server tests are the reference
// clients).
//
// Flags:
//   --port N          listen port (0 = ephemeral, printed on stdout);
//                     overrides VDM_SERVER_PORT
//   --load W          tpch | s4 | none (default tpch)
//   --scale F         TPC-H scale factor (default 0.2)
//   --workers N       minimum worker threads in the engine's one pool,
//                     which runs statements, query morsels and merges
//                     (0 = hardware concurrency)
//   --max-sessions N  connection cap (0 = unlimited);
//                     overrides VDM_MAX_SESSIONS
//   --tenants SPEC    tenant classes (overrides VDM_TENANT_CLASSES), e.g.
//                     "gold:mem_mb=512,conc=8;bronze:mem_mb=64,conc=2"
#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/database.h"
#include "server/server.h"
#include "workload/s4.h"
#include "workload/tpch.h"

using namespace vdm;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--load tpch|s4|none] [--scale F] "
               "[--workers N] [--max-sessions N] [--tenants SPEC]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options = ServerOptions::FromEnv();
  std::string load = "tpch";
  double scale = 0.2;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next())) {
      options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--load" && (v = next())) {
      load = v;
    } else if (arg == "--scale" && (v = next())) {
      scale = std::atof(v);
    } else if (arg == "--workers" && (v = next())) {
      options.workers = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--max-sessions" && (v = next())) {
      options.max_sessions = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--tenants" && (v = next())) {
      options.tenant_spec = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (load != "tpch" && load != "s4" && load != "none") return Usage(argv[0]);

  Database db;
  if (load == "tpch") {
    TpchOptions tpch;
    tpch.scale = scale;
    if (!CreateTpchSchema(&db, tpch).ok() || !LoadTpchData(&db, tpch).ok()) {
      std::fprintf(stderr, "vdmserve: TPC-H setup failed\n");
      return 2;
    }
  } else if (load == "s4") {
    S4Options s4;
    if (!CreateS4Schema(&db, s4).ok() || !LoadS4Data(&db, s4).ok()) {
      std::fprintf(stderr, "vdmserve: S/4 setup failed\n");
      return 2;
    }
  }
  db.AnalyzeTables();
  db.EnablePlanCache();

  Server server(&db, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vdmserve: start failed: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::printf("vdmserve: serving %s%s on 127.0.0.1:%d\n", load.c_str(),
              load == "tpch"
                  ? (" (scale " + std::to_string(scale) + ")").c_str()
                  : "",
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  ServerStats stats = server.stats();
  server.Stop();
  std::printf("vdmserve: shut down (%llu sessions, %llu frames, "
              "%llu protocol errors, %llu cancels)\n",
              static_cast<unsigned long long>(stats.sessions_opened),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.cancels));
  return 0;
}
