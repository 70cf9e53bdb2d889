"""simlint fixture: nested defs that refer to their own names (4 findings)."""


def count_nodes(tree):
    def walk(node):
        return 1 + sum(walk(child) for child in node.children)

    return walk(tree)


def register_once(callbacks):
    def once(event):
        callbacks.discard(once)

    callbacks.add(once)


def relay_factory():
    def relay():
        return lambda: relay

    return relay


class Walker:
    def run(self, tree):
        def visit(node):
            for child in node.children:
                visit(child)

        visit(tree)


def module_level_walk(node):
    return 1 + sum(module_level_walk(child) for child in node.children)


class Tree:
    def size(self):
        return 1 + sum(child.size() for child in self.children)


def local_class():
    class Local:
        def method(self):
            return method  # noqa: F821 -- a global, not the method

    return Local


def shadowed():
    def helper(helper):
        return helper

    return helper(1)


def allowed(tree):
    def walk(node):  # simlint: allow[self-closure] -- one per run
        return [walk(child) for child in node.children]

    return walk(tree)
