#pragma once

namespace mcmcpar::engine {
class StrategyRegistry;
}  // namespace mcmcpar::engine

namespace mcmcpar::shard {

/// Register the "sharded" strategy — the sharding coordinator that splits
/// one image into overlapping tiles, fans them out as independent jobs
/// (locally through engine::BatchRunner or remotely through serve::Client)
/// and stitches the per-tile results back into one RunReport carrying a
/// ShardReport. Called by StrategyRegistry::builtin(); also usable to
/// extend a custom registry. Placement, requeue, hedging and socket-backend
/// fidelity: docs/ARCHITECTURE.md "Sharded execution".
///
/// Options (all `key=value`):
///   tiles=KxL|auto   tile grid (default 2x2; auto = density-adaptive)
///   max-tiles=N      tiles=auto cap (default ~2 per endpoint or core)
///   min-tile-size=N  tiles=auto smallest core side, pixels (default 32)
///   halo=N           overlap margin in pixels (default 16)
///   backend=local|socket          (default local)
///   endpoints=host:port[*weight][,...]   socket backend fleet; remote
///                    tiles match local ones bit-for-bit, but custom
///                    likelihood/moves/theta stay local-backend-only
///   endpoints-file=PATH   fleet from a file (one `host:port [weight]` per
///                    line, `#` comments), merged after endpoints=
///   ping-timeout=X   health-probe PING timeout, seconds (default 5)
///   ping-interval=X  min seconds between re-probes (default 30)
///   hedge-factor=X   re-issue a socket tile outstanding over X x its
///                    reference time on an idle endpoint (default 0 = off)
///   strategy=NAME    inner per-tile strategy (default serial; "sharded"
///                    itself is rejected — no recursive sharding)
///   inner.K=V        forwarded to the inner strategy as K=V
///   tile-iters=N     flat per-tile budget (default: the run budget split
///                    across tiles by predicted workload)
///   min-tile-iters=N floor of that split (default 2000)
///   iou=X            stitcher duplicate threshold (default 0.3)
///   timeout=X        socket read timeout per reply, seconds (default 600)
void registerShardedStrategy(engine::StrategyRegistry& registry);

}  // namespace mcmcpar::shard
