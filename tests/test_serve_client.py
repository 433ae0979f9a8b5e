"""Client reconnect-with-backoff: seeded full-jitter redial via
RetryPolicy.delays(), one-shot retransmit for read-only queries, the
reload cutover that is never auto-retried, and response lines past the
client's read bound."""

import asyncio
import gc
import logging
import warnings

import pytest

import repro.serve.client as client_module
from repro import RectArray, SortTileRecursive, bulk_load
from repro.core.geometry import Rect
from repro.serve import QueryClient, QueryServer, ServeError
from repro.storage import MemoryPageStore
from repro.storage.faults import RetryPolicy

CAPACITY = 25


def _build(rng, n=800):
    rects = RectArray.from_points(rng.random((n, 2)))
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=CAPACITY,
                        store=MemoryPageStore(4096))
    return tree


def run(coro):
    return asyncio.run(coro)


def _policy():
    # Zero backoff keeps the test instant; the schedule shape is
    # covered separately below.
    return RetryPolicy(attempts=5, backoff_s=0.0, jitter=True, seed=3)


class TestRetryPolicyDelays:
    def test_delays_yields_one_entry_per_permitted_retry(self):
        policy = RetryPolicy(attempts=4, backoff_s=0.01, multiplier=2.0,
                             max_backoff_s=0.04, jitter=False)
        assert list(policy.delays()) == [0.01, 0.02, 0.04]

    def test_jittered_schedule_is_seeded_and_bounded(self):
        def fresh():
            return RetryPolicy(attempts=6, backoff_s=0.01,
                               multiplier=2.0, max_backoff_s=0.05,
                               jitter=True, seed=9)
        first = list(fresh().delays())
        assert first == list(fresh().delays())  # reproducible
        nominal = 0.01
        for delay in first:
            assert 0.0 <= delay <= nominal  # full jitter
            nominal = min(nominal * 2.0, 0.05)

    def test_delays_matches_the_run_schedule(self):
        # run() and delays() must draw the same seeded stream, so a
        # sync caller and an async caller back off identically.
        slept = []
        policy = RetryPolicy(attempts=4, backoff_s=0.01, jitter=True,
                             seed=21, retryable=(KeyError,),
                             sleep=slept.append)
        calls = iter(range(4))

        def flaky():
            if next(calls) < 3:
                raise KeyError("transient")
            return "done"

        assert policy.run(flaky) == "done"
        twin = RetryPolicy(attempts=4, backoff_s=0.01, jitter=True,
                           seed=21)
        assert slept == list(twin.delays())

    def test_single_attempt_policy_has_no_delays(self):
        assert list(RetryPolicy(attempts=1).delays()) == []


class TestReconnect:
    def test_client_survives_a_server_restart(self, rng):
        tree = _build(rng)
        q = Rect((0.1, 0.1), (0.4, 0.4))
        expected = sorted(int(x) for x in tree.searcher(128).search(q))

        async def scenario():
            first = QueryServer(tree, buffer_pages=32)
            host, port = await first.start("127.0.0.1", 0)
            client = await QueryClient.connect(
                host, port, reconnect=_policy())
            assert (await client.search(q)).raise_for_error().ids \
                == expected
            await first.aclose()
            # Same port, new server process-equivalent: the next request
            # finds a dead socket, redials, and retransmits once.
            second = QueryServer(tree, buffer_pages=32)
            await second.start(host, port)
            try:
                resp = (await client.search(q)).raise_for_error()
                assert resp.ids == expected
                assert client.reconnects_total == 1
            finally:
                await client.aclose()
                await second.aclose()

        run(scenario())

    def test_redial_closes_the_dead_writer(self, rng):
        """The writer of the dropped connection is closed before the
        redial replaces it, so collecting it warns of nothing."""
        tree = _build(rng, n=300)
        q = Rect((0.1, 0.1), (0.2, 0.2))

        async def scenario():
            first = QueryServer(tree, buffer_pages=32)
            host, port = await first.start("127.0.0.1", 0)
            client = await QueryClient.connect(
                host, port, reconnect=_policy())
            (await client.search(q)).raise_for_error()
            await first.aclose()
            second = QueryServer(tree, buffer_pages=32)
            await second.start(host, port)
            try:
                (await client.search(q)).raise_for_error()
                assert client.reconnects_total == 1
            finally:
                await client.aclose()
                await second.aclose()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run(scenario())
            gc.collect()
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "StreamWriter" in str(w.message)]
        assert unclosed == []

    def test_without_reconnect_a_dead_server_is_a_typed_error(self, rng):
        tree = _build(rng, n=300)
        q = Rect((0.1, 0.1), (0.2, 0.2))

        async def scenario():
            server = QueryServer(tree, buffer_pages=32)
            host, port = await server.start("127.0.0.1", 0)
            client = await QueryClient.connect(host, port)
            (await client.search(q)).raise_for_error()
            await server.aclose()
            with pytest.raises(ServeError, match="closed the connection"):
                await client.search(q)
            await client.aclose()

        run(scenario())

    def test_reconnect_gives_up_after_the_schedule(self, rng):
        tree = _build(rng, n=300)

        async def scenario():
            server = QueryServer(tree, buffer_pages=32)
            host, port = await server.start("127.0.0.1", 0)
            client = await QueryClient.connect(
                host, port, reconnect=_policy())
            (await client.search(Rect((0.1, 0.1),
                                      (0.2, 0.2)))).raise_for_error()
            await server.aclose()  # nothing ever comes back on this port
            with pytest.raises(ServeError, match="reconnect .* failed"):
                await client.search(Rect((0.1, 0.1), (0.2, 0.2)))
            await client.aclose()

        run(scenario())

    def test_reload_is_never_auto_retried_across_a_reconnect(
            self, rng, monkeypatch):
        tree = _build(rng, n=300)

        async def scenario():
            server = QueryServer(tree, buffer_pages=32,
                                 allow_reload=True)
            host, port = await server.start("127.0.0.1", 0)
            client = await QueryClient.connect(
                host, port, reconnect=_policy())
            # The connection drops exactly when the reload is sent: the
            # cutover may have committed server-side, so the client must
            # reconnect but refuse to re-send the generation bump.
            real_send = client._send_once
            dropped = []

            async def drop_reloads(req):
                if req.op == "reload" and not dropped:
                    dropped.append(req.id)
                    return b""
                return await real_send(req)

            monkeypatch.setattr(client, "_send_once", drop_reloads)
            with pytest.raises(ServeError,
                               match="not auto-retrying a generation "
                                     "cutover"):
                await client.reload("/nonexistent/gen2.pages")
            assert dropped  # the drop actually happened
            assert client.reconnects_total == 1
            # The connection is healthy again for ordinary queries.
            (await client.search(Rect((0.1, 0.1),
                                      (0.2, 0.2)))).raise_for_error()
            await client.aclose()
            await server.aclose()

        run(scenario())


class TestShutdown:
    def test_aclose_closes_accepted_connections(self, rng, caplog):
        """A connection still open at aclose is closed by it: the client
        sees EOF, and no request reaches the shut-down executor."""
        tree = _build(rng, n=300)
        q = Rect((0.1, 0.1), (0.2, 0.2))

        async def scenario():
            server = QueryServer(tree, buffer_pages=32)
            host, port = await server.start("127.0.0.1", 0)
            client = await QueryClient.connect(host, port)
            (await client.search(q)).raise_for_error()
            await server.aclose()
            assert server.session_count == 0
            with pytest.raises(ServeError, match="closed the connection"):
                await client.search(q)
            await client.aclose()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            run(scenario())
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

    def test_aclose_does_not_wait_for_a_client_that_stopped_reading(
            self, rng):
        """A client that pipelines whole-square searches and never reads
        leaves its handler blocked on a full send buffer; aclose still
        returns promptly and the client reads EOF."""
        tree = _build(rng, n=20_000)  # about 110 KB per answer
        line = b'{"op": "search", "id": 1, "rect": [[0, 0], [1, 1]]}\n'

        async def scenario():
            server = QueryServer(tree, buffer_pages=64)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(line * 200)
            await writer.drain()
            loop = asyncio.get_running_loop()
            until = loop.time() + 30.0
            while not any(w.transport.get_write_buffer_size()
                          for w in server._clients):
                assert loop.time() < until, "send buffer never filled"
                await asyncio.sleep(0.01)
            stuck = list(server._clients)
            closing = asyncio.ensure_future(server.aclose())
            done, _ = await asyncio.wait({closing}, timeout=5.0)
            if not done:  # unblock it, so this fails instead of hanging
                for w in stuck:
                    w.transport.abort()
                await closing
                pytest.fail("aclose waited on a client that stopped reading")
            assert server.session_count == 0
            await asyncio.wait_for(reader.read(), timeout=5.0)  # EOF
            writer.close()

        run(scenario())

    def test_a_connection_handled_after_aclose_is_dropped(self, rng):
        """A connection accepted just before aclose, whose handler only
        starts afterwards, is closed at once and never registered."""
        import socket

        tree = _build(rng, n=300)

        async def scenario():
            server = QueryServer(tree, buffer_pages=32)
            await server.start("127.0.0.1", 0)
            await server.aclose()
            ours, theirs = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=ours)
            peer_reader, peer_writer = await asyncio.open_connection(
                sock=theirs)
            handler = asyncio.ensure_future(
                server._serve_client(reader, writer))
            done, _ = await asyncio.wait({handler}, timeout=5.0)
            if not done:  # it waits for a request: end it and fail
                peer_writer.close()
                await handler
                pytest.fail("a handler started after aclose served")
            assert server._clients == {} and server.session_count == 0
            assert await asyncio.wait_for(peer_reader.read(), 5.0) == b""
            peer_writer.close()

        run(scenario())


class TestLargeResponses:
    WHOLE = Rect((0.0, 0.0), (1.0, 1.0))

    def test_whole_square_search_returns_every_id(self, rng):
        # About 110 KB on one line: past asyncio's default 64 KiB.
        tree = _build(rng, n=20_000)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                async with await QueryClient.connect(
                        *server.address) as client:
                    resp = (await client.search(self.WHOLE)
                            ).raise_for_error()
                    assert resp.ids == list(range(20_000))
                    assert (await client.ping())["version"] == 1

        run(scenario())

    @pytest.mark.parametrize("reconnect", [False, True])
    def test_a_response_past_the_bound_is_typed_and_drops_the_connection(
            self, rng, monkeypatch, reconnect):
        monkeypatch.setattr(client_module, "RESPONSE_LINE_LIMIT", 4096)
        tree = _build(rng, n=20_000)

        async def scenario():
            async with QueryServer(tree, buffer_pages=64) as server:
                client = await QueryClient.connect(
                    *server.address,
                    reconnect=_policy() if reconnect else None)
                with pytest.raises(ServeError, match="exceeds 4096 bytes"):
                    await client.search(self.WHOLE)
                # Never the rest of the oversized line, read as a reply.
                if reconnect:
                    assert (await client.ping())["version"] == 1
                    assert client.reconnects_total == 1
                    with pytest.raises(ServeError, match="exceeds 4096"):
                        await client.search(self.WHOLE)
                    assert (await client.ping())["version"] == 1
                else:
                    with pytest.raises(ServeError,
                                       match="closed the connection"):
                        await client.ping()
                await client.aclose()

        run(scenario())
