"""Time one fresh process's set-up: import sirpool, build and validate the
config, and compute the expected trajectory the hybrid planner reads.

Usage: python3 perfbench/setup_probe.py '<SimConfig keyword arguments as JSON>'
Prints {"setup_s": <seconds>}.
"""

import json
import sys
import time

import bootstrap


def main() -> None:
    kwargs = json.loads(sys.argv[1])
    bootstrap.pin_threads()
    bootstrap.use_checkout_source()
    start = time.perf_counter()
    import sirpool
    from sirpool import theory

    cfg = sirpool.SimConfig(**kwargs)
    cfg.validate()
    theory.mean_trajectory(theory.TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    elapsed = time.perf_counter() - start
    bootstrap.check_imported(sirpool)
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
