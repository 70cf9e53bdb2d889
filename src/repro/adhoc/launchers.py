"""Sequential and tree-based rsh daemon launchers.

These are thin fronts over the unified strategy layer (:mod:`repro.launch`):
``sequential_rsh_launch`` drives :class:`~repro.launch.SerialRshStrategy`
and ``tree_rsh_launch`` drives :class:`~repro.launch.TreeRshStrategy`. Both
return the strategy's :class:`~repro.launch.LaunchResult`: the spawned
daemons in ``procs`` and the per-phase :class:`~repro.launch.LaunchReport`
in ``report`` (``total`` is the elapsed time; ``failure`` / ``n_failed``
say whether, and why, the launch stopped short).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.cluster import Cluster, Node
from repro.launch import (
    LaunchRequest,
    LaunchResult,
    SerialRshStrategy,
    TreeRshStrategy,
)

__all__ = ["sequential_rsh_launch", "tree_rsh_launch"]


def sequential_rsh_launch(cluster: Cluster, nodes: list[Node],
                          executable: str = "toold",
                          image_mb: float = 4.0,
                          hold_clients: bool = True,
                          stage_images: bool = False,
                          ) -> Generator[Any, Any, LaunchResult]:
    """The most common ad-hoc practice: one rsh per daemon, in a loop.

    With ``hold_clients`` (the MRNet behaviour) each rsh client stays alive
    on the front end, so the launch eventually exhausts the front end's
    process table instead of merely being slow. ``stage_images`` routes the
    daemon image through the storage layer's staging mode (off by default:
    the classic ad-hoc model pays rsh costs only).
    """
    return (yield from SerialRshStrategy().launch(LaunchRequest(
        cluster=cluster, nodes=nodes, executable=executable,
        image_mb=image_mb, hold_clients=hold_clients,
        stage_images=stage_images)))


def tree_rsh_launch(cluster: Cluster, nodes: list[Node],
                    executable: str = "toold",
                    image_mb: float = 4.0,
                    fanout: int = 8,
                    stage_images: bool = False,
                    ) -> Generator[Any, Any, LaunchResult]:
    """Tree-based ad-hoc protocol: spawned daemons spawn children daemons.

    Parallelizes the rsh cost across levels (depth x per-rsh instead of
    count x per-rsh) but keeps every other ad-hoc weakness: it still needs
    rshd on the compute nodes, manual placement, and a manual protocol for
    daemons to find their children.
    """
    return (yield from TreeRshStrategy().launch(LaunchRequest(
        cluster=cluster, nodes=nodes, executable=executable,
        image_mb=image_mb, fanout=fanout, stage_images=stage_images)))
