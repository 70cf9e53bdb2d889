"""Tests for the FE session machinery and the middleware (MW) path."""

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.fe import LMONSession, SessionState, ToolFrontEnd, FrontEndError
from repro.lmonp import FeToBe, FeToMw, LmonpStream, MsgClass
from repro.mw import Middleware
from repro.rm import DaemonSpec
from repro.runner import drive, make_env


def quiet_be(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


def quiet_mw(ctx):
    mw = Middleware(ctx)
    yield from mw.init()
    yield from mw.ready()
    yield from mw.finalize()


class TestSessions:
    def test_session_ids_unique(self):
        a, b = LMONSession("t"), LMONSession("t")
        assert a.id != b.id
        assert a.key != b.key

    def test_require_state(self):
        s = LMONSession("t")
        s.require_state(SessionState.CREATED)
        with pytest.raises(RuntimeError, match="needs one of"):
            s.require_state(SessionState.READY)

    def test_fe_session_table(self):
        env = make_env(n_compute=2)
        fe = ToolFrontEnd(env.cluster, env.rm, "t")
        s1, s2 = fe.create_session(), fe.create_session()
        assert fe.sessions[s1.id] is s1
        assert fe.sessions[s2.id] is s2

    def test_launch_on_used_session_rejected(self):
        env = make_env(n_compute=2)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        spec = DaemonSpec("d", main=quiet_be)

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(s, app, spec)
            with pytest.raises(RuntimeError):
                yield from fe.launch_and_spawn(s, app, spec)
            yield from fe.detach(s)

        drive(env, tool(env))

    def test_usrdata_requires_ready_daemons(self):
        env = make_env(n_compute=2)

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            with pytest.raises(FrontEndError, match="no be_stream"):
                yield from fe.send_usrdata_be(s, {"x": 1})

        drive(env, tool(env))


class TestMiddlewarePath:
    def _run(self, n_app_nodes=2, n_mw_nodes=3, usr_data=None,
             mw_main=None, topology=None):
        env = make_env(n_compute=n_app_nodes + n_mw_nodes)
        app = make_compute_app(n_tasks=8 * n_app_nodes, tasks_per_node=8)
        box = {}

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("be_d", main=quiet_be))
            yield from fe.launch_mw_daemons(
                s, DaemonSpec("mw_d", main=mw_main or quiet_mw),
                n_nodes=n_mw_nodes, usr_data=usr_data, topology=topology)
            box["session"] = s
            yield from fe.detach(s)

        drive(env, tool(env))
        box["env"] = env
        return box

    def test_mw_daemons_on_separate_allocation(self):
        box = self._run(n_app_nodes=2, n_mw_nodes=3)
        s = box["session"]
        assert s.state is SessionState.DETACHED
        assert len(s.mw_daemons) == 3
        be_nodes = {d.node.name for d in s.daemons}
        mw_nodes = {d.node.name for d in s.mw_daemons}
        assert not be_nodes & mw_nodes  # disjoint allocations

    def test_mw_launch_keeps_the_launch_breakdown_summing_to_total(self):
        # times break down the back-end launchAndSpawn alone: a later MW
        # spawn must not add to T(daemon) once e11 has fixed the total
        env = make_env(n_compute=12)
        app = make_compute_app(n_tasks=64, tasks_per_node=8)

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("be_d", main=quiet_be))
            before = s.times.as_dict()
            yield from fe.launch_mw_daemons(
                s, DaemonSpec("mw_d", main=quiet_mw), n_nodes=4)
            yield from fe.detach(s)
            return before, s.times

        before, times = drive(env, tool(env))
        assert times.as_dict() == before
        parts = times.rm_time() + times.launchmon_time()
        assert parts == pytest.approx(times.total)

    def test_mw_state_transition(self):
        env = make_env(n_compute=4)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        states = []

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("be_d", main=quiet_be))
            states.append(s.state)
            yield from fe.launch_mw_daemons(
                s, DaemonSpec("mw_d", main=quiet_mw), n_nodes=2)
            states.append(s.state)
            yield from fe.detach(s)

        drive(env, tool(env))
        assert states == [SessionState.READY, SessionState.MW_READY]

    def test_personality_handles_and_rpdtab(self):
        seen = []

        def mw_main(ctx):
            mw = Middleware(ctx)
            yield from mw.init()
            seen.append({
                "personality": mw.get_personality(),
                "size": mw.get_size(),
                "rpdtab_len": len(ctx.rpdtab),
                "table": list(ctx.daemon_table),
                "is_master": mw.am_i_master(),
            })
            yield from mw.ready()
            yield from mw.finalize()

        self._run(n_app_nodes=2, n_mw_nodes=3, mw_main=mw_main)
        assert sorted(d["personality"] for d in seen) == [0, 1, 2]
        assert all(d["size"] == 3 for d in seen)
        # every TBON daemon received the full RPDTAB (Section 3.4)
        assert all(d["rpdtab_len"] == 16 for d in seen)
        # and the personality table is globally consistent
        tables = {tuple(map(tuple, d["table"])) for d in seen}
        assert len(tables) == 1
        assert sum(d["is_master"] for d in seen) == 1

    def test_mw_usr_data_piggyback(self):
        got = []

        def mw_main(ctx):
            mw = Middleware(ctx)
            yield from mw.init()
            got.append(ctx.usr_data_init)
            yield from mw.ready()
            yield from mw.finalize()

        self._run(n_mw_nodes=2, mw_main=mw_main,
                  usr_data={"tree": "1-deep"})
        assert got == [{"tree": "1-deep"}, {"tree": "1-deep"}]

    def test_mw_requires_ready_session(self):
        env = make_env(n_compute=4)

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            with pytest.raises(RuntimeError):
                yield from fe.launch_mw_daemons(
                    s, DaemonSpec("mw_d", main=quiet_mw), n_nodes=2)

        drive(env, tool(env))

    def test_mw_flat_topology_override(self):
        box = self._run(n_mw_nodes=4, topology="flat")
        fabric = box["session"].mw_fabric
        assert fabric.topology.children[0] == (1, 2, 3)


class TestMwUsrDataExchange:
    def test_fe_mw_bidirectional(self):
        env = make_env(n_compute=4)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        box = {}

        def mw_main(ctx):
            mw = Middleware(ctx)
            yield from mw.init()
            yield from mw.ready()
            if mw.am_i_master():
                req = yield from mw.recv_usrdata()
                yield from mw.send_usrdata({"echo": req["ping"] + 1})
            yield from mw.finalize()

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("be_d", main=quiet_be))
            yield from fe.launch_mw_daemons(
                s, DaemonSpec("mw_d", main=mw_main), n_nodes=2)
            yield from fe.send_usrdata_mw(s, {"ping": 41})
            box["reply"] = yield from fe.recv_usrdata_mw(s)
            yield from fe.detach(s)

        drive(env, tool(env))
        assert box["reply"] == {"echo": 42}


class TestWireClasses:
    def test_each_stream_speaks_its_own_message_class(self, monkeypatch):
        # BE and MW share one handshake; the type codes mostly coincide
        # (HANDSHAKE = 1 in both enums), so pin the class and the type
        # enum of every message each side sends
        sent = {}
        real_send = LmonpStream.send

        def recording_send(stream, msg):
            sent.setdefault(stream.name, []).append(
                (msg.msg_class, type(msg.msg_type), int(msg.msg_type)))
            return real_send(stream, msg)

        monkeypatch.setattr(LmonpStream, "send", recording_send)
        env = make_env(n_compute=4)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)

        def be_main(ctx):
            be = BackEnd(ctx)
            yield from be.init()
            yield from be.ready()
            if be.am_i_master():
                req = yield from be.recv_usrdata()
                yield from be.send_usrdata(req)
            yield from be.finalize()

        def mw_main(ctx):
            mw = Middleware(ctx)
            yield from mw.init()
            yield from mw.ready()
            if mw.am_i_master():
                req = yield from mw.recv_usrdata()
                yield from mw.send_usrdata(req)
            yield from mw.finalize()

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("be_d", main=be_main))
            yield from fe.launch_mw_daemons(
                s, DaemonSpec("mw_d", main=mw_main), n_nodes=2)
            yield from fe.send_usrdata_be(s, 1)
            assert (yield from fe.recv_usrdata_be(s)) == 1
            yield from fe.send_usrdata_mw(s, 2)
            assert (yield from fe.recv_usrdata_mw(s)) == 2
            yield from fe.detach(s)

        drive(env, tool(env))

        def wire(msg_class, types, *names):
            return [(msg_class, types, int(types[n])) for n in names]

        assert sent["master-be"] == wire(
            MsgClass.FE_BE, FeToBe, "HANDSHAKE", "READY", "USRDATA",
            "SHUTDOWN")
        assert sent["fe-be"] == wire(
            MsgClass.FE_BE, FeToBe, "PROCTAB", "USRDATA")
        assert sent["master-mw"] == wire(
            MsgClass.FE_MW, FeToMw, "HANDSHAKE", "READY", "USRDATA",
            "SHUTDOWN")
        assert sent["fe-mw"] == wire(
            MsgClass.FE_MW, FeToMw, "PROCTAB", "USRDATA")
        # the one code the two enums do not share
        assert (FeToBe.SHUTDOWN, FeToMw.SHUTDOWN) == (6, 5)
