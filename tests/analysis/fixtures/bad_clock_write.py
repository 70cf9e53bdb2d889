"""simlint fixture: the simulator's clock written outside repro.simx
(6 findings)."""


def jump_the_clock(sim, env, t):
    sim.now = t
    sim.now += 1.0
    env.sim.now = t
    start, sim.now = t, t
    sim.now: float = 0.0


def forget_the_clock(sim):
    del sim.now


def read_the_clock(sim, env):
    # reading the clock, and other names that contain "now": quiet
    now = sim.now
    t_now = env.sim.now
    return now, t_now


class Model:
    def __init__(self, sim):
        self.now_ms = sim.now * 1e3
        self.known = sim.now

    def rewind(self, sim):
        sim.now = 0.0  # simlint: allow[clock-write] -- suppressed
