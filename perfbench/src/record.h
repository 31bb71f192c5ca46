// What the closed-loop client records per request, shared by the checks, the
// metrics and the in-process replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"
#include "workload.h"

namespace perfbench {

/// One request/response pair on the wire. Its index in the run's exchange
/// list is the request id the replay's spans carry.
struct Exchange {
  vexus::server::RequestType type = vexus::server::RequestType::kHealth;
  /// Sent during the measured window (not warm-up).
  bool measured = false;
  bool answered = false;
  vexus::StatusCode code = vexus::StatusCode::kOk;
  /// The overload ladder's degraded flag by its first letter ('e'ffort,
  /// 'k', 's'tale, 'p'artial); 0 when the answer is full fidelity.
  char degraded = 0;
  bool deadline_hit = false;
  double wire_ms = 0;
  double elapsed_ms = 0;
  double queue_ms = 0;
  double coverage = 0;
  double diversity = 0;
  /// Response line bytes including the newline.
  uint32_t bytes = 0;
  /// Shown group ids, as sent (ascending).
  std::vector<uint32_t> groups;

  bool ok() const { return answered && code == vexus::StatusCode::kOk; }
  bool is_screen() const {
    return type == vexus::server::RequestType::kStartSession ||
           type == vexus::server::RequestType::kSelectGroup;
  }
};

/// One session the client ran (possibly cut short at the end of the run).
struct SessionRun {
  SessionScript script;
  /// Exchange index of each sent op, in script order.
  std::vector<size_t> exchanges;
};

}  // namespace perfbench
