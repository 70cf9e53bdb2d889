"""repro.adhoc -- ad-hoc tool daemon launching baselines (paper Section 2).

The practices LaunchMON replaces: remote-access commands (rsh/ssh) driven
either sequentially from the tool front end or through a tree-based
protocol where launched daemons spawn further daemons. Both are RM-agnostic
and therefore portable *in theory*; in practice they are linear-or-worse in
cost, fail when front-end process tables fill (Section 5.2's observed
512-daemon collapse), and cannot run at all on MPP systems whose compute
nodes refuse remote access. Since the unified launch layer landed, these
functions are thin fronts over :class:`~repro.launch.SerialRshStrategy` /
:class:`~repro.launch.TreeRshStrategy`: each returns the strategy's
:class:`~repro.launch.LaunchResult`, whose ``.report`` is the per-phase
:class:`~repro.launch.LaunchReport`.
"""

from repro.adhoc.launchers import sequential_rsh_launch, tree_rsh_launch

__all__ = ["sequential_rsh_launch", "tree_rsh_launch"]
