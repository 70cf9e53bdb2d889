"""simlint fixture: setdefault defaults built on every call; lint with
hot=True (4 findings)."""


class Router:
    def __init__(self):
        self.seen = {}
        self.index = {}

    def contribute(self, wave, sender):
        self.seen.setdefault(wave, set()).add(sender)

    def pending(self, leaf):
        return self.index.setdefault(leaf, {})

    def charge(self, member, n):
        self.index.setdefault(member, [0, 0])[1] += n

    def senders(self, wave, packets):
        return self.index.setdefault(wave, {p[0] for p in packets})

    def count(self, key):
        return self.index.setdefault(key, 0)  # a constant: nothing built

    def share(self, key, default):
        return self.index.setdefault(key, default)  # exists already

    def lazy(self, wave):
        entry = self.seen.get(wave)
        if entry is None:  # built only when missing
            entry = self.seen[wave] = set()
        return entry
