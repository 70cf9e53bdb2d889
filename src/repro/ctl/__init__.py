"""Persistent control-plane daemon: lifecycle, checkpoint/restore, adoption.

The simulated equivalent of running the tool-launching service as a
long-lived daemon instead of a per-run library: a
:class:`~repro.ctl.daemon.ControlPlane` supervisor that is the one verb
surface -- idempotent ``cmd_start``/``cmd_stop``/``cmd_status``/
``cmd_reload`` plus the session verbs (``launch``, ``wait``, ``end``,
...) -- over per-generation :class:`~repro.ctl.daemon.CtlDaemon`
processes checkpointing session state on every transition
(:mod:`repro.ctl.checkpoint`), and a restore path
(:mod:`repro.ctl.restore`) that re-adopts live daemon trees across a
daemon restart without relaunching them, and tears everything else down
engine-free through the RM epilogue. ``tests/ctl`` holds the
crash-restart harness driving randomized kill points against all of it.
"""

from repro.ctl.checkpoint import (CHECKPOINT_VERSION, Checkpoint,
                                  CheckpointError, CheckpointVersionError,
                                  QueueRecord, SessionRecord,
                                  decode_checkpoint, encode_checkpoint)
from repro.ctl.daemon import ControlPlane, CtlDaemon, CtlSession, DaemonState
from repro.ctl.errors import CtlError, CtlUnavailable, UnknownToolError
from repro.ctl.registry import CTL_STREAM_ID, RECIPES, LaunchSpec
from repro.ctl.restore import RestoreReport, restore, restore_from_store
from repro.ctl.store import CheckpointStore

__all__ = [
    "CHECKPOINT_VERSION",
    "CTL_STREAM_ID",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "ControlPlane",
    "CtlDaemon",
    "CtlError",
    "CtlSession",
    "CtlUnavailable",
    "DaemonState",
    "LaunchSpec",
    "QueueRecord",
    "RECIPES",
    "RestoreReport",
    "SessionRecord",
    "UnknownToolError",
    "decode_checkpoint",
    "encode_checkpoint",
    "restore",
    "restore_from_store",
]
