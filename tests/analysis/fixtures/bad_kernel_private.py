"""simlint fixture: kernel scheduling state outside repro.simx (7 findings)."""

from heapq import heappush


def schedule_behind_the_kernel(sim, event):
    sim._enqueue(event, 0.0, 1)
    sim._fast_urgent.append(event)
    sim._seq = event._seq = sim._seq + 1
    sim._fast_normal.append(event)


def peek_the_heap(sim, event):
    heappush(sim._heap, (sim.now, 1, 0, event))


def through_the_kernel(sim, event):
    # the public producers and clock are what model code uses: quiet
    event.succeed()
    sim.timeout(1.0)
    return sim.now, sim.peek(), sim.stats.events


class Model:
    def __init__(self):
        # other private names, and these names as plain variables: quiet
        self._sequence = 0
        self._heaped = []
        _seq = 0
        self.seq = _seq

    def legacy(self, sim):
        return sim._heap  # simlint: allow[kernel-private] -- suppressed
