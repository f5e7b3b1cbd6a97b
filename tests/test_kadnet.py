import copy
import random
from collections import Counter

import pytest

from dhtsim import kadnet
from dhtsim.adversary import AttackPolicy
from dhtsim.idspace import aligned_block
from dhtsim.kadnet import (
    BETA,
    MODES,
    POOL_CAP,
    KadNetwork,
    KadNode,
    bucket_insert,
    credit_reputation,
    kad_lookup,
    pollution_fraction,
    warmup,
    _answer,
    _iterate,
)
from oracles import (bootstrap_contacts, closest_colluders, colluders_within,
                     kad_bucket, random_key, shared_prefix_bits, truth_root,
                     xor_distance, xor_nearest)


def returned_by(*queries):
    """The returned-by map _iterate builds from (queried, returned)
    pairs in query order."""
    graph = {}
    for v, returned in queries:
        for b in returned:
            graph.setdefault(b, []).append(v)
    return graph


def fig2_graph():
    """The worked lookup graph: three first-step queries, two deeper
    levels, root r4 returned by two different contacts."""
    return returned_by(("a27", ["b12", "b15"]), ("a22", ["b12", "b10"]),
                       ("a25", ["b10", "b14"]), ("b12", ["b30", "b15"]),
                       ("b10", ["r4"]), ("b14", ["r4", "r7"]))


class TestLookupGraph:
    def test_first_step_edges_point_at_querier(self):
        g = returned_by(("a1", ["b1", "b2"]))
        assert g["b1"] == ["a1"] and g["b2"] == ["a1"]
        # a1 came from q's own contacts: its one returner, q, is left
        # implicit, so the walk from b1 stops at a1 without reaching q
        assert "a1" not in g
        assert credit_reputation("q", g, "b1") == {"b1", "a1"}

    def test_later_steps_add_no_querier_edge(self):
        g = returned_by(("a1", ["b1"]), ("b1", ["c1"]))
        assert g["b1"] == ["a1"]   # no edge to q
        assert g["c1"] == ["b1"]
        assert g == {"b1": ["a1"], "c1": ["b1"]}

    def test_duplicate_returns_make_parallel_paths(self):
        g = fig2_graph()
        # b12 returned by both a27 and a22: one key, two returners
        assert sorted(g["b12"]) == ["a22", "a27"]
        assert len(g) == len(set(g))

    def test_worked_example_credits(self):
        g = fig2_graph()
        assert credit_reputation("q", g, "r4") == {
            "r4", "b10", "b14", "a22", "a25"}

    def test_root_with_no_parents_credits_only_itself(self):
        assert credit_reputation("q", {}, "r") == {"r"}

    def test_cycle_terminates(self):
        g = returned_by(("a", ["b"]), ("b", ["a"]))   # ancestor returned
        assert credit_reputation("q", g, "b") == {"a", "b"}

    def test_querier_never_credited(self):
        g = fig2_graph()
        for root in ("r4", "b10", "a22"):
            assert "q" not in credit_reputation("q", g, root)

    def test_credited_set_matches_reachability_oracle(self):
        """Credit equals the set reachable from the root along return
        edges without passing through the querier."""
        rng = random.Random(5)
        cases = 0
        for _ in range(180):
            size = rng.randrange(2, 12)
            names = list(range(size))
            g = {}
            for _ in range(rng.randrange(1, 25)):
                u = rng.choice(names)
                v = rng.choice(names + ["q"])
                if u != v:
                    g.setdefault(u, []).append(v)
            for root in names:
                want = set()
                frontier = [root]
                while frontier:
                    u = frontier.pop()
                    if u in want or u == "q":
                        continue
                    want.add(u)
                    frontier.extend(g.get(u, ()))
                assert credit_reputation("q", g, root) == want
                cases += 1
        assert cases >= 1000


class TestBuckets:
    def make_net(self, **kw):
        kw.setdefault("k", 3)
        return KadNetwork(8, seed=11, **kw)

    def blank(self, net):
        nid = net.honest_nodes()[0]
        node = net.nodes[nid]
        node.last_seen.clear()
        node.sorted_contacts = []
        return node

    def peer(self, node, j, salt=0):
        """An id sharing exactly j leading bits with node."""
        return node.id ^ (1 << (31 - j)) ^ salt

    def test_prefix_invariant_on_insert(self):
        net = self.make_net()
        node = self.blank(net)
        for j in (0, 3, 9, 20):
            cand = self.peer(node, j)
            bucket_insert(net, node, cand)
            assert cand in kad_bucket(node, j, net.bits)
            assert shared_prefix_bits(node.id, cand) == j

    def test_self_insert_rejected(self):
        net = self.make_net()
        node = self.blank(net)
        with pytest.raises(ValueError):
            bucket_insert(net, node, node.id)

    def test_reencounter_refreshes_not_duplicates(self):
        net = self.make_net()
        node = self.blank(net)
        cand = self.peer(node, 4)
        bucket_insert(net, node, cand)
        first_seen = node.last_seen[cand]
        bucket_insert(net, node, cand)
        assert kad_bucket(node, 4, net.bits).count(cand) == 1
        assert node.last_seen[cand] > first_seen

    def test_regular_eviction_drops_least_seen(self):
        net = self.make_net()
        node = self.blank(net)
        a, b, c = (self.peer(node, 2, s) for s in (1, 2, 3))
        for cand in (a, b, c):
            bucket_insert(net, node, cand)
        bucket_insert(net, node, a)        # refresh a: b is now stalest
        d = self.peer(node, 2, 4)
        bucket_insert(net, node, d)
        assert kad_bucket(node, 2, net.bits) == sorted([a, c, d])

    def test_reputed_eviction_drops_fewest_successes_then_least_seen(self):
        net = self.make_net()
        node = self.blank(net)
        store = net.stores[node.id]
        a, b, c = (self.peer(node, 2, s) for s in (1, 2, 3))
        for cand, hits in ((a, 5), (b, 3), (c, 3)):
            bucket_insert(net, node, cand)
            for _ in range(hits):
                store.record(cand, True)
        # successes tie at 3 for b and c; b was seen earlier
        d = self.peer(node, 2, 4)
        bucket_insert(net, node, d, reds=True)
        assert kad_bucket(node, 2, net.bits) == sorted([a, c, d])

    def test_nonfull_bucket_appends(self):
        net = self.make_net()
        node = self.blank(net)
        a, b = self.peer(node, 5, 1), self.peer(node, 5, 2)
        bucket_insert(net, node, a)
        bucket_insert(net, node, b)
        assert kad_bucket(node, 5, net.bits) == sorted([a, b])

    def test_prefix_invariant_property(self):
        """Every bucket entry of every node shares exactly the bucket's
        index in leading bits, nowhere exceeding k entries, and each
        bucket is exactly the node's contacts with that shared prefix,
        the aligned block bucket_insert reads for any of its members."""
        net = KadNetwork(300, colluding=0.15, seed=7)
        warmup(net, 2, policy=AttackPolicy(1.0, seed=1), seed=7)
        checked = 0
        for nid, node in net.nodes.items():
            assert sorted(node.last_seen) == node.sorted_contacts
            all_entries = []
            for j in range(net.bits):
                bucket = kad_bucket(node, j, net.bits)
                assert bucket == [u for u in node.sorted_contacts
                                  if shared_prefix_bits(nid, u) == j]
                assert len(bucket) <= net.k
                for u in bucket:
                    assert shared_prefix_bits(nid, u) == j
                    assert u != nid
                    assert aligned_block(node.sorted_contacts, u,
                                         (nid ^ u).bit_length() - 1) == bucket
                    checked += 1
                all_entries.extend(bucket)
            assert sorted(all_entries) == node.sorted_contacts
        assert checked >= 1000


class TestReplicaRoots:
    def test_matches_brute_force_sort(self):
        net = KadNetwork(300, seed=2)
        rng = random.Random(9)
        for _ in range(200):
            key = rng.randrange(net.space)
            want = [u for u in xor_nearest(net.ids, key, net.replica_count)
                    if shared_prefix_bits(u, key) >= net.tolerance_bits]
            assert net.replica_roots(key) == want
            if want:
                assert truth_root(net, key) == want[0]

    def test_random_key_always_in_tolerance(self):
        net = KadNetwork(64, seed=3)
        rng = random.Random(4)
        for _ in range(50):
            key = net.random_key(rng)
            assert net.replica_roots(key)

    def test_random_key_bounded_at_full_tolerance(self):
        # each live id is its own tolerance block, so drawing keys over
        # the whole space would take about 2**32 / 50 draws per key
        net = KadNetwork(50, tolerance_bits=32)
        rng = random.Random(5)
        for _ in range(20):
            key = net.random_key(rng)
            assert truth_root(net, key) is not None

    def test_random_key_uniform_over_keys_in_tolerance(self):
        net = KadNetwork(10, seed=8, bits=8, tolerance_bits=4)
        valid = [key for key in range(net.space)
                 if truth_root(net, key) is not None]
        draws = 100 * len(valid)
        rng = random.Random(6)
        hits = Counter(net.random_key(rng) for _ in range(draws))
        assert set(hits) == set(valid)
        # 100 expected per key, sd about 10
        assert all(50 <= c <= 150 for c in hits.values())

    @pytest.mark.parametrize("tolerance_bits", [0, 1, 8, 20, 32])
    def test_random_key_draws_as_the_sorted_set_rule(self, tolerance_bits):
        net = KadNetwork(80, seed=12, tolerance_bits=tolerance_bits)
        rng, oracle_rng = random.Random(7), random.Random(7)
        for _ in range(50):
            assert net.random_key(rng) == random_key(net, oracle_rng)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            KadNetwork(1)
        with pytest.raises(ValueError):
            KadNetwork(10, colluding=1.0)
        with pytest.raises(ValueError):
            KadNetwork(10, replica_count=0)
        for k in (0, -1):
            with pytest.raises(ValueError):
                KadNetwork(10, k=k)
        for tol in (-1, 33, 40):
            with pytest.raises(ValueError):
                KadNetwork(50, tolerance_bits=tol)
        with pytest.raises(ValueError):
            KadNetwork(10, bits=8, tolerance_bits=9)
        # the ends of both ranges are accepted
        KadNetwork(10, k=1, tolerance_bits=0)
        KadNetwork(10, bits=8, tolerance_bits=8)

    @pytest.mark.parametrize("option", ["k", "replica_count",
                                        "tolerance_bits"])
    def test_build_rejects_a_non_integer_size(self, option):
        # k and replica_count used to raise TypeError from a slice, and
        # tolerance_bits=2.5 passed until random_key raised
        for value in (2.5, 2.0, "2"):
            with pytest.raises(ValueError):
                KadNetwork(50, seed=1, **{option: value})
        assert getattr(KadNetwork(50, seed=1, **{option: 2}), option) == 2


class TestBuild:
    def test_seed_contacts_draw_as_sampling_the_others(self):
        # every index: the first, the middle and the last id included
        net = KadNetwork(40, 0.2, seed=5)
        assert net.bootstrap == 6
        for v in net.ids:
            oracle_rng = random.Random()
            oracle_rng.setstate(net.rng.getstate())
            want = bootstrap_contacts(oracle_rng, net.ids, v, net.bootstrap)
            net.nodes[v] = KadNode(v)
            net._seed_contacts(v)
            assert net.nodes[v].sorted_contacts == sorted(want)
            assert net.rng.getstate() == oracle_rng.getstate()

    def test_lookup_graph_changes_no_step(self):
        """_iterate with and without a lookup graph queries, files and
        nominates alike, so join self-lookups can skip the graph."""
        net = KadNetwork(120, 0.25, seed=6)
        rng = random.Random(8)
        honest = net.honest_nodes()
        for mode in MODES:
            for attacked in (False, True):
                q = rng.choice(honest)
                key = net.random_key(rng)
                roots = net.replica_roots(key)
                with_graph, without = copy.deepcopy(net), copy.deepcopy(net)
                graph = {}
                got = _iterate(with_graph, q, key, mode, attacked, roots,
                               graph)
                assert _iterate(without, q, key, mode, attacked,
                                roots) == got
                # each queried node was returned or was q's own contact
                assert got[1] <= set(graph) | set(net.nodes[q].last_seen)
                assert with_graph.clock == without.clock
                assert with_graph.rng.getstate() == without.rng.getstate()
                for v, node in with_graph.nodes.items():
                    assert node.last_seen == without.nodes[v].last_seen
                    assert node.sorted_contacts == \
                        without.nodes[v].sorted_contacts


class TestLookup:
    def test_clean_network_lookups_succeed_after_warmup(self):
        net = KadNetwork(300, seed=1)
        warmup(net, 5, seed=1)
        rng = random.Random(7)
        hon = net.honest_nodes()
        for _ in range(150):
            out = kad_lookup(net, rng.choice(hon), net.random_key(rng))
            assert out.success
            assert out.closest_root == truth_root(net, out.key)

    def test_step_count_logarithmic(self):
        net = KadNetwork(400, seed=6)
        warmup(net, 4, seed=6)
        rng = random.Random(8)
        hon = net.honest_nodes()
        bound = 2 * (400).bit_length()
        for _ in range(100):
            out = kad_lookup(net, rng.choice(hon), net.random_key(rng))
            assert out.steps <= bound

    def test_malicious_querier_rejected(self):
        net = KadNetwork(100, colluding=0.2, seed=5)
        bad = next(iter(net.malicious))
        with pytest.raises(ValueError):
            kad_lookup(net, bad, 17)

    def test_departed_querier_rejected(self):
        net = KadNetwork(100, colluding=0.2, seed=5)
        gone = net.honest_nodes()[0]
        net.leave(gone)
        for mode in MODES:
            with pytest.raises(ValueError):
                kad_lookup(net, gone, 17, mode=mode)

    def test_unknown_mode_rejected(self):
        net = KadNetwork(50, seed=5)
        with pytest.raises(ValueError):
            kad_lookup(net, net.honest_nodes()[0], 17, mode="turbo")

    def test_warmup_rejects_a_bad_lookup_count(self):
        # a negative count used to return having run nothing
        net = KadNetwork(50, seed=5)
        for count in (-3, -1, 1.5, "2"):
            with pytest.raises(ValueError):
                warmup(net, count)
        warmup(net, 0)
        assert net.serial == 0
        warmup(net, 1)
        assert net.serial == len(net.honest_nodes())

    def test_key_outside_id_space_rejected(self):
        # such a key has no root, and its lookup used to charge q's
        # contacts failed uses anyway
        net = KadNetwork(40, 0.2, seed=1, bits=16)
        q = net.honest_nodes()[0]
        counts = {v: dict(st.counts) for v, st in net.stores.items()}
        serial = net.serial
        for key in (1 << 16, -1, 3 << 20):
            for mode in MODES:
                with pytest.raises(ValueError):
                    kad_lookup(net, q, key, mode=mode,
                               policy=AttackPolicy(1.0, seed=1))
        assert net.serial == serial
        assert {v: st.counts for v, st in net.stores.items()} == counts
        # the ends of the space are still keys
        for key in (0, (1 << 16) - 1):
            kad_lookup(net, q, key)
        assert net.serial == serial + 2

    def test_colluder_answers_are_closer_colluders(self):
        """Attacked or not, a colluder with closer colluders available
        answers with a selection of them and nothing else, and an
        attacked one nominates the colluder nearest the key."""
        net = KadNetwork(300, colluding=0.3, seed=9)
        warmup(net, 2, seed=9)
        rng = random.Random(3)
        polluted = 0
        for attacked in (True, False):
            for _ in range(200):
                key = net.random_key(rng)
                v = rng.choice(net.colluders)
                ret, nominee = _answer(net, v, key, attacked, "regular",
                                       set(net.replica_roots(key)),
                                       truth_root(net, key),
                                       closest_colluders(net, key, POOL_CAP))
                assert len(ret) <= BETA
                floor = shared_prefix_bits(v, key) + 1
                closer = [m for m in colluders_within(net, key, floor)
                          if m != v]
                if closer:
                    assert set(ret) <= set(closer)
                    assert len(ret) == min(BETA, len(closer))
                    polluted += 1
                elif attacked:
                    assert ret == closest_colluders(net, key, BETA)
                if attacked:
                    assert nominee == closest_colluders(net, key, 1)[0]
        assert polluted > 100

    def test_colluder_spreads_distinct_ids(self):
        """Responses sample among the qualifying colluders rather than
        repeating the same few ids."""
        net = KadNetwork(400, colluding=0.3, seed=9)
        rng = random.Random(6)
        key = net.random_key(rng)
        v = max(net.colluders,
                key=lambda u: xor_distance(u, key))
        roots = set(net.replica_roots(key))
        ranked = closest_colluders(net, key, POOL_CAP)
        seen = set()
        for _ in range(200):
            seen.update(_answer(net, v, key, True, "regular", roots,
                                truth_root(net, key), ranked)[0])
        assert len(seen) > 2 * BETA

    def test_cornered_colluder_hands_over_known_truth(self):
        """A colluder with no closer colluders to offer returns the
        true root when it knows it, keeping its reputation intact."""
        net = KadNetwork(300, colluding=0.3, seed=9)
        warmup(net, 3, seed=9)
        rng = random.Random(11)
        handed = 0
        for _ in range(2000):
            key = net.random_key(rng)
            truth = truth_root(net, key)
            ranked = closest_colluders(net, key, POOL_CAP)
            v = ranked[0]
            if v == truth or truth not in net.nodes[v].last_seen:
                continue
            roots = set(net.replica_roots(key))
            returned, nominee = _answer(net, v, key, False, "regular",
                                        roots, truth, ranked)
            assert nominee == truth
            assert returned[0] == truth
            handed += 1
        assert handed > 20

    def test_lookup_records_graph_vertices(self):
        net = KadNetwork(200, seed=12)
        warmup(net, 3, seed=12)
        q = net.honest_nodes()[0]
        store = net.stores[q]
        before = {u: tuple(v) for u, v in store.counts.items()}
        rng = random.Random(1)
        out = kad_lookup(net, q, net.random_key(rng))
        assert out.success
        credited = credit_reputation(q, out.graph, out.closest_root)
        for u in set(out.graph) | out.queried:
            if u == q or u not in net.nodes:
                continue
            succ, uses = store.counts[u]
            b_succ, b_uses = before.get(u, (0, 0))
            assert uses == b_uses + 1
            assert succ == b_succ + (1 if u in credited else 0)

    def test_departed_contact_purged_on_query(self):
        net = KadNetwork(120, seed=13)
        warmup(net, 3, seed=13)
        rng = random.Random(2)
        q = net.honest_nodes()[0]
        node_q = net.nodes[q]
        gone = max(node_q.sorted_contacts,
                   key=lambda u: net.stores[q].score(u))
        assert gone in net.stores[q].counts
        net.leave(gone)
        # the leave clears every store at once, but q's contacts learn
        # of the departure only when a lookup queries gone
        assert gone not in net.stores[q].counts
        assert gone in node_q.last_seen
        for _ in range(40):
            kad_lookup(net, q, net.random_key(rng))
        assert gone not in node_q.last_seen
        assert gone not in net.stores[q].counts

    def test_join_uses_fresh_id_and_is_reachable(self):
        net = KadNetwork(150, seed=14)
        warmup(net, 3, seed=14)
        seen = set(net.ids)
        nid = net.join()
        assert nid not in seen
        assert nid in net.nodes and nid in net.stores
        # the newcomer's own vicinity learned it during the join
        knowers = sum(1 for v, node in net.nodes.items()
                      if v != nid and nid in node.last_seen)
        assert knowers > 0

    @pytest.mark.parametrize("mode", ["regular", "aboost", "collaborative"])
    def test_querier_that_is_the_root_finds_itself(self, mode):
        """No contact can return the querier, so when it is the true
        root it nominates itself and the lookup blames no one."""
        net = KadNetwork(150, seed=15)
        warmup(net, 2, seed=15)
        q = net.honest_nodes()[3]
        before = {u: tuple(c) for u, c in net.stores[q].counts.items()}
        out = kad_lookup(net, q, q, mode=mode)
        assert out.success
        assert out.closest_root == q
        after = {u: tuple(c) for u, c in net.stores[q].counts.items()}
        assert after == before

    def test_same_seed_gives_identical_tables_and_outcomes(self):
        def run():
            net = KadNetwork(120, colluding=0.2, seed=16)
            warmup(net, 2, policy=AttackPolicy(0.5, seed=3), seed=16)
            tables = {v: (dict(node.last_seen), list(node.sorted_contacts))
                      for v, node in net.nodes.items()}
            rng = random.Random(4)
            hon = net.honest_nodes()
            outcomes = [(o.closest_root, o.success, o.steps)
                        for o in (kad_lookup(net, rng.choice(hon),
                                             net.random_key(rng))
                                  for _ in range(50))]
            return tables, outcomes
        assert run() == run()

    def test_lookup_walks_replica_roots_once(self, monkeypatch):
        """A lookup finds key's replica roots once and hands them down;
        colluders answering it, attacked or not, re-derive nothing."""
        net = KadNetwork(300, colluding=0.3, seed=9)
        warmup(net, 2, seed=9)
        rng = random.Random(5)
        hon = net.honest_nodes()
        cases = [(rng.choice(hon), net.random_key(rng)) for _ in range(60)]
        calls = []
        real = KadNetwork.replica_roots

        def counted(self, key):
            calls.append(key)
            return real(self, key)

        monkeypatch.setattr(KadNetwork, "replica_roots", counted)
        for i, (q, key) in enumerate(cases):
            policy = AttackPolicy(1.0 if i % 2 else 0.0, seed=1)
            del calls[:]
            kad_lookup(net, q, key, mode=MODES[i % 3], policy=policy)
            assert calls == [key]

    def test_lookup_ranks_colluders_once(self, monkeypatch):
        """Every _iterate ranks the colluders nearest its key once, for
        all the colluders answering it, attacked or not, in a scored
        lookup and in a join self-lookup alike."""
        net = KadNetwork(300, colluding=0.3, seed=9)
        warmup(net, 2, seed=9)
        rng = random.Random(5)
        hon = net.honest_nodes()
        cases = [(rng.choice(hon), net.random_key(rng)) for _ in range(60)]
        ranks, iterations = [], []
        real_closest, real_iterate = kadnet.xor_closest, kadnet._iterate

        def closest(ids, key, count=1):
            if ids is net.colluders:
                ranks.append(key)
            return real_closest(ids, key, count)

        def iterate(net, q, key, *args):
            iterations.append(key)
            return real_iterate(net, q, key, *args)

        monkeypatch.setattr(kadnet, "xor_closest", closest)
        monkeypatch.setattr(kadnet, "_iterate", iterate)
        asked = {True: 0, False: 0}
        for i, (q, key) in enumerate(cases):
            policy = AttackPolicy(1.0 if i % 2 else 0.0, seed=1)
            del ranks[:], iterations[:]
            out = kad_lookup(net, q, key, mode=MODES[i % 3], policy=policy)
            assert ranks == iterations == [key]
            asked[bool(i % 2)] += sum(1 for u in out.queried
                                      if net.is_malicious(u))
        assert asked[True] > 0 and asked[False] > 0
        for malicious in (False, True):
            del ranks[:], iterations[:]
            nid = net.join(malicious)
            assert ranks == iterations == [nid]

    @staticmethod
    def churned_lookups(colluding):
        """300 attacked lookups over all modes on a 200-node net where a
        node leaves and another joins before every fifth lookup; yields
        each lookup's net, querier, contacts beforehand and outcome."""
        net = KadNetwork(200, colluding, seed=17)
        policy = AttackPolicy(1.0, seed=17)
        rng = random.Random(17)
        for i in range(300):
            if i % 5 == 0:
                gone = rng.choice(net.ids)
                was_bad = net.is_malicious(gone)
                net.leave(gone)
                net.join(malicious=was_bad)
            q = rng.choice(net.honest_nodes())
            contacts = list(net.nodes[q].sorted_contacts)
            out = kad_lookup(net, q, net.random_key(rng), mode=MODES[i % 3],
                             policy=policy)
            yield net, q, contacts, out

    @pytest.mark.parametrize("colluding", [0.0, 0.2, 0.4])
    def test_credited_contacts_were_all_queried(self, colluding):
        """On every successful lookup, in every mode, under attack and
        while nodes leave and join, each credited node was queried, so
        charging only queried contacts leaves no credit out."""
        checked = 0
        for net, q, _, out in self.churned_lookups(colluding):
            if out.success and out.closest_root != q:
                credited = credit_reputation(q, out.graph, out.closest_root)
                assert credited <= out.queried
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize("colluding", [0.0, 0.2, 0.4])
    def test_returned_by_map_names_only_queried_returners(self, colluding):
        """Every returner the map lists was queried, and the querier is
        neither returned nor a returner."""
        returners = 0
        for net, q, _, out in self.churned_lookups(colluding):
            assert q not in out.graph
            for b, by in out.graph.items():
                assert by and set(by) <= out.queried
                assert q not in by
                returners += len(by)
        assert returners > 10000

    @pytest.mark.parametrize("colluding", [0.0, 0.2, 0.4])
    def test_lookup_ends_with_the_nearest_live_contacts_queried(
            self, colluding):
        """A lookup stops only once the k live ids nearest the key among
        all it heard of are queried: a departed contact it finds frees
        its shortlist place for the next live one."""
        departed = 0
        for net, q, contacts, out in self.churned_lookups(colluding):
            heard = (set(contacts) | set(out.graph) | out.queried) - {q}
            live = [u for u in heard if u in net.nodes]
            assert set(xor_nearest(live, out.key, net.k)) <= out.queried
            departed += sum(1 for u in out.queried if u not in net.nodes)
        assert departed > 100


class TestPollution:
    def test_clean_network_has_zero_pollution(self):
        net = KadNetwork(150, seed=4)
        warmup(net, 2, seed=4)
        assert pollution_fraction(net) == 0.0

    def test_attacked_network_pollution_between_zero_and_one(self):
        net = KadNetwork(300, colluding=0.25, seed=4)
        warmup(net, 3, policy=AttackPolicy(1.0, seed=2), seed=4)
        p = pollution_fraction(net)
        assert 0.05 < p < 0.8

    def test_all_malicious_entries_counts_as_one(self):
        net = KadNetwork(20, colluding=0.4, seed=6)
        bad = sorted(net.malicious)
        for v, node in net.nodes.items():
            if net.is_malicious(v):
                continue
            node.last_seen.clear()
            node.sorted_contacts = []
            for u in bad[:3]:
                if u != v:
                    bucket_insert(net, node, u)
        assert pollution_fraction(net) == 1.0
