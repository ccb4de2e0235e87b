// dpgrid_server: serve a SnapshotStore directory over TCP.
//
//   ./dpgrid_server <snapshot_dir> [port] [--demo]
//
// Boots a SynopsisCatalog with the latest version of every synopsis in
// <snapshot_dir> and serves them over the DPGW wire protocol (see README,
// "Wire protocol"). Port 0 (the default) picks an ephemeral port and
// prints it. --demo publishes a seeded demo grid first so the server has
// something to serve on an empty directory.
//
// A publisher process that drops new .dpgs versions into the directory
// becomes visible to clients on the next RELOAD op, or automatically
// every DPGRID_RELOAD_SECS seconds (env; default 0 = disabled).
//
// SIGINT (Ctrl-C) and SIGTERM (what init systems and container runtimes
// send) both exit through the graceful-drain path: stop accepting, let
// in-flight frames finish up to DPGRID_DRAIN_MS, then cut stragglers.
// Resilience knobs (all env, see QueryServerOptions for semantics;
// 0 disables): DPGRID_READ_DEADLINE_MS, DPGRID_IDLE_TIMEOUT_MS,
// DPGRID_MAX_CONNS, DPGRID_DRAIN_MS. Each connection is served by its
// own handler thread, so DPGRID_MAX_CONNS also caps those threads.
// Observability knobs: DPGRID_SLOW_FRAME_US
// (slow-frame trace threshold, 0 disables) and DPGRID_LOG_LEVEL
// (debug|info|warn|error|off; default info).
//
// Try it:
//   ./dpgrid_server /tmp/snaps 7171 --demo &
//   ./dpgrid_cli remote-list 127.0.0.1 7171
//   ./dpgrid_cli remote-query 127.0.0.1 7171 demo -100 30 -80 45

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "catalog/synopsis_catalog.h"
#include "common/env.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "obs/log.h"
#include "query/query_engine.h"
#include "server/server.h"
#include "store/snapshot_store.h"

#include "example_util.h"

using namespace dpgrid;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dpgrid_server <snapshot_dir> [port] [--demo]\n");
    return 2;
  }
  const std::string dir = argv[1];
  uint16_t port = 0;
  bool demo = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (!ParsePort(argv[i], /*allow_zero=*/true, &port)) {
      std::fprintf(stderr, "error: bad port '%s' (need 0-65535; 0 = "
                           "ephemeral)\n", argv[i]);
      return 2;
    }
  }

  SnapshotStore store(dir);
  if (demo && store.ListNames().empty()) {
    Rng rng(20130408);
    const Dataset data = MakeLandmarkLike(100000, rng);
    UniformGrid demo_grid(data, 1.0, rng);
    std::string error;
    if (store.Publish("demo", demo_grid, SnapshotMeta{1.0, "demo"}, &error) ==
        0) {
      obs::Log(obs::LogLevel::kError, "demo_publish_failed",
               {{"error", error}});
      return 1;
    }
    obs::Log(obs::LogLevel::kInfo, "demo_published",
             {{"synopsis", demo_grid.Name()}, {"dir", dir}});
  }

  SynopsisCatalog catalog(&store);
  std::string errors;
  const size_t loaded = catalog.LoadAll(&errors);
  if (!errors.empty()) {
    obs::Log(obs::LogLevel::kWarn, "snapshots_failed_to_load",
             {{"errors", errors}});
  }
  obs::Log(obs::LogLevel::kInfo, "catalog_loaded",
           {{"synopses", std::to_string(loaded)}, {"dir", dir}});
  if (obs::LogEnabled(obs::LogLevel::kDebug)) {
    for (const CatalogEntryInfo& e : catalog.List()) {
      obs::Log(obs::LogLevel::kDebug, "catalog_entry",
               {{"name", e.name},
                {"version", std::to_string(e.version)},
                {"dims", std::to_string(e.dims)},
                {"synopsis", e.synopsis_name},
                {"epsilon", std::to_string(e.epsilon)},
                {"label", e.label}});
    }
  }

  const QueryEngine engine;
  QueryServerOptions options;
  options.port = port;
  options.read_deadline_ms = static_cast<int>(
      EnvInt64("DPGRID_READ_DEADLINE_MS", options.read_deadline_ms));
  options.idle_timeout_ms = static_cast<int>(
      EnvInt64("DPGRID_IDLE_TIMEOUT_MS", options.idle_timeout_ms));
  options.max_connections = static_cast<size_t>(EnvInt64(
      "DPGRID_MAX_CONNS", static_cast<int64_t>(options.max_connections)));
  DrainOptions drain;
  drain.deadline_ms =
      static_cast<int>(EnvInt64("DPGRID_DRAIN_MS", drain.deadline_ms));
  QueryServer server(&catalog, &engine, options);
  // Registered before Start so a signal racing the startup window is not
  // lost to the default (abrupt-kill) disposition.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::string error;
  if (!server.Start(&error)) {
    obs::Log(obs::LogLevel::kError, "startup_failed", {{"error", error}});
    return 1;
  }
  obs::Log(obs::LogLevel::kInfo, "startup",
           {{"address", options.bind_address},
            {"port", std::to_string(server.port())},
            {"engine", "thread-per-connection"},
            {"protocol_version", std::to_string(kWireProtocolVersion)}});
  const long reload_secs =
      std::getenv("DPGRID_RELOAD_SECS") != nullptr
          ? std::atol(std::getenv("DPGRID_RELOAD_SECS"))
          : 0;
  long ticks = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (reload_secs > 0 && ++ticks * 200 >= reload_secs * 1000) {
      ticks = 0;
      const size_t installed = catalog.ReloadAll(nullptr);
      server.RecordReloads(installed);
      if (installed > 0) {
        obs::Log(obs::LogLevel::kInfo, "hot_reload",
                 {{"versions_installed", std::to_string(installed)}});
      }
    }
  }

  const bool drained = server.Shutdown(drain);
  const WireStats stats = server.StatsSnapshot();
  obs::Log(obs::LogLevel::kInfo, "shutdown",
           {{"drained", drained ? "true" : "false"},
            {"connections", std::to_string(stats.connections_accepted)},
            {"frames", std::to_string(stats.frames_received)},
            {"batches", std::to_string(stats.batches_answered)},
            {"queries", std::to_string(stats.queries_answered)},
            {"errors", std::to_string(stats.errors_returned)},
            {"shed", std::to_string(stats.connections_shed)},
            {"read_timeouts", std::to_string(stats.read_timeouts)},
            {"idle_timeouts", std::to_string(stats.idle_timeouts)}});
  return 0;
}
