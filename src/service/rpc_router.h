// Forwarding header: the RPC router is ShardRouter over RpcShardBackends
// (service/router.h, net/client.h). The alias remains only because the
// benchmark harness (perfbench/src/rpc.cc) still names RpcShardRouter;
// new code names ShardRouter.

#pragma once

#include "service/router.h"

namespace comparesets {

using RpcShardRouter = ShardRouter;

}  // namespace comparesets
