#!/usr/bin/env python3
"""Control-plane demo: a daemon restart under live tool sessions.

Starts the persistent control-plane daemon, launches two tool sessions
through it (one with a TBON overlay publishing into a persistent
stream), then kills the daemon mid-service and restarts it. The new
generation restores from the checkpoint: both trees are *adopted* --
rebound to the same RM jobs and the same daemon processes, never
relaunched -- and the overlay's stream keeps delivering the waves the
daemons published while the control plane was dead.

Run:  python examples/ctl_demo.py
"""

from repro import make_env
from repro.cluster import ClusterSpec
from repro.ctl import CTL_STREAM_ID, ControlPlane


def run_gen(env, gen):
    proc = env.sim.process(gen)
    env.sim.run()
    return proc.value


def main():
    env = make_env(n_compute=12, spec=ClusterSpec(n_compute=12, seed=7),
                   seed=7)
    sim = env.sim
    control = ControlPlane(env.cluster, env.rm, max_in_flight=3)

    print("=== generation 1: start, launch, serve ===\n")
    st = control.cmd_start()
    print(f"daemon {st['state']}, generation {st['generation']}")
    id_be = control.launch("generic-be", 3)
    id_ov = control.launch("overlay", 3, waves=2)
    run_gen(env, control.wait(id_be))
    run_gen(env, control.wait(id_ov))
    for ctl_id in (id_be, id_ov):
        info = control.info(ctl_id)
        print(f"ctl{ctl_id}: {info['tool']} -> {info['state']}")
    # a second start against a live daemon is an idempotent no-op
    st = control.cmd_start()
    print(f"start again: already_running={st['already_running']}")

    daemons_before = {
        ctl_id: [d.proc for d in control.daemon.get(ctl_id).session.job.daemons]
        for ctl_id in (id_be, id_ov)
    }

    print("\n=== crash: SIGKILL mid-service ===\n")
    control.crash()
    print(f"daemon state: {control.cmd_status()['state']}")
    sim.run(until=sim.now + 0.5)  # the trees keep running headless
    alive = sum(p.alive for procs in daemons_before.values() for p in procs)
    print(f"daemon processes still alive while control plane is down: "
          f"{alive}")

    print("\n=== generation 2: restart + restore ===\n")
    st = control.cmd_start()
    report = control.daemon.restore_report
    print(f"daemon {st['state']}, generation {st['generation']}")
    print(f"restore: adopted={report.adopted} resubmitted="
          f"{report.resubmitted} relaunched={report.relaunched}")
    for ctl_id in (id_be, id_ov):
        cs = control.daemon.get(ctl_id)
        same = [d.proc for d in cs.session.job.daemons] \
            == daemons_before[ctl_id]
        print(f"ctl{ctl_id}: adopted={cs.adopted}, same daemon "
              f"processes={same}")

    # data-plane continuity: read the waves published before the crash
    stream = control.open_stream(id_ov, stream_id=CTL_STREAM_ID)

    def read_waves():
        got = []
        for _ in range(2):
            pkt = yield from stream.next_wave()
            got.append(pkt.wave)
        return got

    waves = run_gen(env, read_waves())
    print(f"\nstream over the adopted overlay delivered waves: {waves}")

    print("\n=== teardown ===\n")
    for ctl_id in (id_be, id_ov):
        run_gen(env, control.end(ctl_id))
    st = run_gen(env, control.cmd_stop())
    print(f"daemon {st['state']}; allocated nodes left: "
          f"{len(env.rm.allocated_node_names)} (must be 0)")


if __name__ == "__main__":
    main()
