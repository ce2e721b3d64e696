"""The WBM DFS (paper Algorithm 1) and the layout of its per-warp state.

A warp's DFS state lives in block shared memory — its pending
work-item queue, its frames (the per-level candidate arrays and
cursors, ``csize``/``p`` in the paper) and its partial assignment —
which is what lets sibling warps steal from it. The worker exists in
two host-side forms behind the repo's flag-with-oracle convention.
``config.vectorized`` (default) runs each warp's DFS as a
**level-stepped cursor** (:class:`_DfsLevelCursor`): per-step
bookkeeping lives in Python scalars
(:class:`~repro.matching.level_batch._FrameStack`), candidate
runs live in an :class:`~repro.gpu.memory.Int64Arena`, the scheduler
drives one resumable step per DFS level, and a frame adopts its
children from the host's level pass by offset — or, where the pass did
not reach it, generates them once, across sibling cursors staging the
same ``(group, level)`` when the launch-wide step coalescer finds
them, per frame otherwise. ``vectorized=False`` keeps the generator
pair ``_worker``/``_dfs`` over the dict-walk Gen-Candidates as the
correctness oracle; matches, ``KernelStats``/``BlockStats`` and the
whole block schedule are byte-identical between the two
(``tests/test_dfs_level_step.py``).

This module also owns every read and write of that state a steal
makes: the load estimate, taking loot (:func:`_steal_from`), turning
loot into work items, and the passive donation.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro import xp
from repro.gpu.scheduler import BlockScheduler
from repro.gpu.warp import LevelCursor, WarpContext
from repro.matching.coalesced import CoalescedGroup
from repro.matching.gen_candidates import _charge_gen, _gen_candidates
from repro.matching.launch_env import _Env
from repro.matching.level_batch import _entry_candidates, _FrameStack, _level_children


_QUEUE_ITEM_WEIGHT = 4  # steal-estimate weight of one pending work item
_STEAL_PERIOD = 8  # passive: a busy warp checks for parked siblings every this many steps


def _boundary_items(
    ctx: WarpContext,
    env: _Env,
    group: CoalescedGroup,
    assign: dict[int, int],
    dedup: set,
    rank: int,
) -> list[dict]:
    """Permute a completed core assignment through the group's
    automorphisms, screen against the full candidate table, and return
    phase-B work items. The permutations are index tables and each core
    value's filter row is one cached bitmap read (:meth:`_Env.core_maps`),
    so screening costs no call per query vertex; the dedup walk keeps
    the automorphisms' order."""
    src, targets, rows = env.core_maps(group)
    values = [assign[u] for u in group.core]
    passes = [rows.get(dv) or env.core_row(group, rows, dv) for dv in values]
    items: list[dict] = []
    for moved, target in zip(src, targets):
        key = tuple([values[k] for k in moved])
        if key in dedup:
            continue
        dedup.add(key)
        for i, k in enumerate(moved):
            if not passes[k][i]:
                break
        else:
            items.append(
                {
                    "group": group,
                    "assign": dict(zip(target, values)),
                    "level": len(group.core),
                    "dedup": dedup,
                    "rank": rank,
                    "permuted": True,
                }
            )
    ctx.charge_lanes(len(group.core_maps) * len(group.core))
    return items


def _state_name(warp_id: int) -> str:
    return f"wstate_{warp_id}"


def _ensure_state(ctx: WarpContext, env: Optional[_Env] = None) -> dict:
    """The warp's shared DFS state, allocated on first use.

    With ``env`` (the level-stepped path) the state carries the cursor
    layout: frames as a :class:`_FrameStack` and the assignment as a
    plain int list indexed by query vertex (-1 = unassigned). The
    generator oracle keeps the original dict/list layout. A launch
    never mixes the two — every worker of a launch is spawned through
    the same :func:`_spawn_worker` mode.
    """
    name = _state_name(ctx.warp_id)
    if name not in ctx.shared:
        if env is not None:
            # pooled per launch: the warp's frame stack and assignment
            # are reused across the launch's blocks
            state = env._cursor_states.get(ctx.warp_id)
            if state is None:
                state = env._cursor_states[ctx.warp_id] = {
                    "queue": [],
                    "frames": _FrameStack(env.n),
                    "assign": [-1] * env.n,
                    "order": (),
                    "active": False,
                }
        else:
            state = {"queue": [], "frames": [], "assign": {}, "order": (), "active": False}
        ctx.shared_alloc(name, state, words=64)
    state, _ = ctx.shared.read(name)
    return state


def _worker(ctx: WarpContext, env: _Env, items: list[dict]) -> Generator[None, None, None]:
    """Process work items (initial mappings, boundary partials, or
    stolen slices) until the local queue drains."""
    ctx.resume_mutates_shared = False  # the mutation is happening now
    state = _ensure_state(ctx)
    state["queue"].extend(items)
    state["active"] = True
    try:
        while state["queue"]:
            item = state["queue"].pop()
            yield from _dfs(ctx, env, state, item)
    finally:
        state["active"] = False
        state["frames"] = []
        state["assign"] = {}


def _dfs(ctx: WarpContext, env: _Env, state: dict, item: dict) -> Generator[None, None, None]:
    group: CoalescedGroup = item["group"]
    order = group.full_order
    n = env.n
    boundary = len(group.core)
    rank = item["rank"]
    dedup: set = item["dedup"]
    assign = dict(item["assign"])
    state["assign"] = assign
    state["order"] = order
    state["current_group"] = group
    state["current_dedup"] = dedup
    state["current_rank"] = rank
    level = item["level"]

    # items landing at or past the end are complete matches (k=0 groups)
    if level >= n:
        env.emit(ctx, assign)
        return
    # unpermuted item sitting exactly on the boundary: permute first
    if level == boundary and not item.get("permuted", False) and not group.is_singleton:
        state["queue"].extend(_boundary_items(ctx, env, group, assign, dedup, rank))
        return

    frames: list[dict] = state["frames"]
    base_depth = len(frames)

    cands = item.get("cands")
    if cands is None:
        cands = _gen_candidates(ctx, env, group, order, assign, level, rank)
        yield
    env.gauge.alloc(len(cands))
    frames.append({"level": level, "cands": cands, "p": 0})
    passive = env.config.work_stealing == "passive"
    step = 0

    while len(frames) > base_depth:
        env.check_budget(ctx)
        fr = frames[-1]
        lv = fr["level"]
        qv = order[lv]
        # csize is re-read each iteration: an active thief may have
        # truncated the candidate list through shared memory
        if fr["p"] >= len(fr["cands"]):
            frames.pop()
            env.gauge.free(len(fr["cands"]))
            assign.pop(qv, None)
            ctx.charge_compute(1)
            continue
        c = fr["cands"][fr["p"]]
        fr["p"] += 1
        assign[qv] = c
        nxt = lv + 1
        step += 1
        if passive and step % _STEAL_PERIOD == 0:
            _passive_donate(ctx, env, state)
        # boundary first: a whole-query automorphic group (boundary == n)
        # must still emit the permuted members, not just the found one
        if nxt == boundary and not group.is_singleton:
            state["queue"].extend(_boundary_items(ctx, env, group, assign, dedup, rank))
            del assign[qv]
            continue
        if nxt == n:
            env.emit(ctx, assign)
            del assign[qv]
            continue
        nxt_cands = _gen_candidates(ctx, env, group, order, assign, nxt, rank)
        yield
        if nxt_cands:
            env.gauge.alloc(len(nxt_cands))
            frames.append({"level": nxt, "cands": nxt_cands, "p": 0})
        else:
            del assign[qv]
    # leftover assignment of the entry level is cleared by frame pop


class _DfsLevelCursor(LevelCursor):
    """Level-stepped DFS worker (one warp's main loop).

    The fast-path replacement for the generator ``_worker``/``_dfs``
    pair: one :meth:`step` executes exactly the work between two oracle
    yields — the pending candidate attach, then pops / emits / boundary
    bookkeeping up to and including the next candidate generation — so
    the block schedule, every charge, and all sibling-observable shared
    state are byte-identical to the generator path at every step
    boundary. What changes is the host-side execution: per-step
    bookkeeping lives in Python scalars — a :class:`_FrameStack` of int
    lists and an int-list assignment — while arrays are used only where
    a whole candidate run is processed. A frame adopts its children at
    push as a :class:`~repro.matching.level_batch.LevelRecord` and an
    offset: the host's level pass's wherever it reached the frame (a
    thief's tail included), else the step coalescer's fused batch or
    one inline :func:`_level_children` call's; an item entry the pass
    did not record is one :func:`_entry_candidates` call. Each child's
    gen cost replays from the record's priced segments with scalar
    adds.

    Every vectorized launch runs this one path, whatever its budget or
    stealing mode. Interactions stay faithful: active thieves only run
    between steps (and read the same state shape through
    ``_steal_from``). A leaf run is emitted as one batch only where no
    oracle step could observe its middle: passive donates fire between
    leaves, so passive stealing emits leaf by leaf, and under a cycle
    budget a run batches only when the budget cannot trip inside it
    (see :meth:`_Env.check_budget`).

    A generation that comes out empty lets the cursor run ahead
    (:meth:`_run_ahead`): the oracle's next resumptions, each taking
    the frame's next candidate and charging its generation, run in the
    same step while each starts strictly before the block's observer
    horizon (:meth:`BlockScheduler.horizon`, bounded for siblings by
    :meth:`lookahead`). Passive donations and budget checks inside the
    DFS loop turn it off, as they turn off leaf runs.
    """

    __slots__ = (
        "env",
        "items",
        "state",
        "pending",
        "staged",
        "group",
        "order",
        "boundary",
        "singleton",
        "gen_levels",
        "rank",
        "dedup",
        "steps",
        "budget",
        "leaf_cycles",
        "passive",
        "_prefetch",
    )

    def __init__(self, ctx: WarpContext, env: _Env, items: list[dict]) -> None:
        # ``ctx`` mirrors the _worker(ctx, ...) signature; the cursor is
        # always stepped with the owning warp's context by the scheduler
        self.env = env
        self.items = list(items)
        self.state: Optional[dict] = None
        self.pending: Optional[tuple] = None
        #: True while ``pending`` holds a frame whose children the step
        #: coalescer may generate early (see :meth:`staged_gen`)
        self.staged = False
        self._prefetch: Optional[tuple] = None
        cfg = env.config
        self.passive = cfg.work_stealing == "passive"
        self.budget = cfg.cycle_budget
        if self.budget is not None:
            # busy cycles of one emitted leaf (write_global_consecutive)
            params = ctx.params
            self.leaf_cycles = (
                -(-env.n // params.warp_size) * params.global_transaction_cycles
            )
        self.steps = 0

    # ------------------------------------------------------------------
    def step(self, ctx: WarpContext) -> bool:
        """One resumption; True once the work queue drains."""
        state = self.state
        if state is None:
            # first resumption: same prologue as _worker
            ctx.resume_mutates_shared = False
            state = self.state = _ensure_state(ctx, self.env)
            state["queue"].extend(self.items)
            state["active"] = True
            self.items = None
        try:
            pend = self.pending
            if pend is not None:
                self.pending = None
                self.staged = False
                env = self.env
                if pend[0] == 0:  # entry frame push after the item-entry gen
                    _, cands, level, frame = pend
                    env.gauge.alloc(len(cands))
                    self._push_frame(
                        ctx, state, level, xp.asarray(cands, dtype=xp.int64), frame
                    )
                else:  # child attach after a priced gen segment
                    _, child, nxt, frame, qv_prev = pend
                    if len(child):
                        env.gauge.alloc(len(child))
                        self._push_frame(ctx, state, nxt, child, frame)
                    else:
                        state["assign"][qv_prev] = -1
                if self._inner(ctx):
                    return False
            queue = state["queue"]
            while queue:
                if self._enter_item(ctx, queue.pop()):
                    return False
        except BaseException:
            self._cleanup()  # the generator's finally block
            raise
        self._cleanup()
        return True

    def _cleanup(self) -> None:
        state = self.state
        state["active"] = False
        state["frames"].clear()
        state["assign"][:] = [-1] * self.env.n

    def _enter_item(self, ctx: WarpContext, item: dict) -> bool:
        """The _dfs prologue; True when the item yielded on its entry gen."""
        env = self.env
        state = self.state
        group: CoalescedGroup = item["group"]
        n = env.n
        boundary = len(group.core)
        rank = item["rank"]
        dedup: set = item["dedup"]
        adict = item["assign"]
        level = item["level"]
        # items that never open a frame (complete matches, unpermuted
        # boundary partials) are handled before the state bookkeeping:
        # the oracle's writes for them are unobservable — no yield can
        # occur before a later item (or the worker's cleanup) overwrites
        # the state — so skipping them changes nothing a sibling can see
        if level >= n:
            env.emit(ctx, adict)
            return False
        singleton = group.is_singleton
        if level == boundary and not item.get("permuted", False) and not singleton:
            state["queue"].extend(
                _boundary_items(ctx, env, group, adict, dedup, rank)
            )
            return False
        order = group.full_order
        assign = state["assign"]
        assign[:] = [-1] * n
        for u, dv in adict.items():
            assign[u] = dv
        state["order"] = order
        state["current_group"] = group
        state["current_dedup"] = dedup
        state["current_rank"] = rank
        self.group = group
        self.order = order
        self.boundary = boundary
        self.singleton = singleton
        #: per level: does a frame there generate children, i.e. is its
        #: next level neither the match end nor an unpermuted boundary
        self.gen_levels = [
            lv + 1 < n and (lv + 1 != boundary or singleton) for lv in range(n)
        ]
        self.rank = rank
        self.dedup = dedup
        self.steps = 0
        cands = item.get("cands")
        if cands is None:
            # the host's level pass recorded the entry (and the tree
            # below it) where it reached the item; else generate it now
            entry = item.get("entry")
            if entry is None:
                cands, charge = _entry_candidates(env, group, adict, level, rank)
                frame = None
            else:
                cands, charge, frame = entry
            _charge_gen(ctx, *charge)
            self.pending = (0, cands, level, frame)
            self.staged = frame is None and len(cands) > 0 and self.gen_levels[level]
            return True  # the oracle's entry-gen yield
        # stolen frame slice: pushed in the same resumption, no yield
        env.gauge.alloc(len(cands))
        self._push_frame(
            ctx, state, level, xp.asarray(cands, dtype=xp.int64), item.get("rec")
        )
        return self._inner(ctx)

    def staged_gen(self):
        """The pending frame's fully-determined child-generation request,
        as ``(group, level, request)``; the request is
        :func:`_level_children`'s, with the prefix builder
        :meth:`staged_prefix` in place of the prefix.

        Once :attr:`pending` is set, the cursor's next resumption begins
        by pushing exactly that frame: the prefix comes from
        ``state["assign"]`` (mutated only by this cursor — thieves
        truncate arena runs, never the assignment), and the candidate
        run is the pending tuple's own array. Early generation is
        therefore value- and cost-identical to the inline
        :func:`_level_children` call at push time. :attr:`staged` mirrors
        the gating of :meth:`_push_frame` — frames that would not
        generate inline (no children, or a record to adopt) stage
        nothing — and drops once the coalescer hands the frame its
        prefetched children.
        """
        if not self.staged:
            return None
        _, cands, lv = self.pending[:3]
        return self.group, lv, (self.staged_prefix, cands, self.rank)

    def staged_prefix(self, lv: int) -> list[int]:
        """The staged frame's prefix, the data vertices of
        ``order[:lv]``, materialized on demand: the coalescer scans
        staged requests every level step but only the members of a
        class of two or more ever need it, so the request carries this
        builder instead of an eager copy."""
        order = self.order
        assign = self.state["assign"]
        return [assign[order[i]] for i in range(lv)]

    def _push_frame(self, ctx: WarpContext, state: dict, lv: int, cands, frame=None) -> None:
        """Push a frame and attach its children's record: ``frame``, the
        ``(record, offset)`` handle the level pass (or a victim's split
        frame) recorded, else the coalescer's prefetch, else one inline
        :func:`_level_children` call. No charges yet — each child pays
        its segment at its own consumption step, exactly when the
        oracle would have charged its Gen-Candidates call."""
        fs: _FrameStack = state["frames"]
        d = fs.push(lv, cands)
        pf = self._prefetch
        if pf is not None:
            # the launch-wide coalescer already generated this frame's
            # children in a fused sibling batch; adopt them verbatim
            self._prefetch = None
            if pf[0] == lv:
                frame = pf[1:]
        if not (len(cands) and self.gen_levels[lv]):
            return
        if frame is None:
            run = fs.arena.view(fs.start[d], fs.end[d])
            request = (self.staged_prefix(lv), run, self.rank)
            frame = _level_children(self.env, self.group, lv, [request], ctx.params)[0]
        rec, base = frame
        fs.rec[d] = rec
        fs.base[d] = base
        # every candidate of the new frame is still ahead of its owner
        sums = rec.clock_sums()
        fs.clock_ahead += sums[base + fs.end[d] - fs.start[d]] - sums[base]

    def _inner(self, ctx: WarpContext) -> bool:
        """The _dfs while loop; True when it yielded on a child gen."""
        state = self.state
        fs: _FrameStack = state["frames"]
        # the frame lists are mutated in place, never replaced, and no
        # frame is pushed inside this loop, so the arena buffer is stable;
        # what only the rare branches need is read there, off ``self``
        fs_level, fs_start, fs_end, fs_p = fs.level, fs.start, fs.end, fs.p
        fs_rec, fs_base = fs.rec, fs.base
        buf = fs.arena.buf
        assign = state["assign"]
        order = self.order
        boundary = self.boundary
        singleton = self.singleton
        n = self.env.n
        budget = self.budget
        batch_leaves = not self.passive
        sched = self.env.sched
        while fs.depth:
            if budget is not None:
                self.env.check_budget(ctx)
            d = fs.depth - 1
            # bounds re-read each iteration: an active thief may have
            # truncated the frame's run through shared memory
            p, end = fs_p[d], fs_end[d]
            lv = fs_level[d]
            qv = order[lv]
            if p >= end:
                self.env.gauge.free(fs.pop())
                assign[qv] = -1
                ctx.charge_compute(1)
                continue
            nxt = lv + 1
            is_boundary = nxt == boundary and not singleton
            if batch_leaves and nxt == n and not is_boundary and (
                budget is None
                or self.env.spent_cycles + (end - p - 1) * self.leaf_cycles <= budget
            ):
                # leaf frame: the oracle drains it within one resumption
                # (no yield between emits), so emit the whole remaining
                # run as one batch with the identical total charge (a
                # budgeted run only when no per-leaf check could trip,
                # see _Env.check_budget; else the per-leaf branch below)
                k = end - p
                row = assign[:]
                out_matches = self.env.out.matches
                for c in xp.to_numpy(buf[p:end]).tolist():
                    row[qv] = c
                    out_matches.append(tuple(row))
                params = ctx.params
                tx = -(-n // params.warp_size) * k
                cycles = tx * params.global_transaction_cycles
                ctx.clock += cycles
                ctx.busy_cycles += cycles
                st = ctx.stats
                st.global_transactions += tx
                st.coalesced_transactions += tx
                fs_p[d] = end
                continue
            c = int(buf[p])
            fs_p[d] = p + 1
            assign[qv] = c
            if self.passive:
                self.steps += 1
                if self.steps % _STEAL_PERIOD == 0:
                    _passive_donate(ctx, self.env, state)
            if is_boundary:
                group = self.group
                bdict = {u: assign[u] for u in group.core}
                state["queue"].extend(
                    _boundary_items(
                        ctx, self.env, group, bdict, self.dedup, self.rank
                    )
                )
                assign[qv] = -1
                continue
            if nxt == n:
                ctx.write_global_consecutive(n)
                self.env.out.matches.append(tuple(assign))
                assign[qv] = -1
                continue
            # child gen: replay the priced per-level segment, attach on
            # the next resumption (the oracle's post-gen yield). The
            # segment is charged inline — :meth:`SegmentCosts.apply`'s
            # exact adds, without a call per step
            rec = fs_rec[d]
            j = fs_base[d] + p - fs_start[d]
            costs = rec.costs
            cycles = costs.clock[j]
            ctx.clock += cycles
            ctx.busy_cycles += cycles  # a Gen-Candidates segment is all busy
            fs.clock_ahead -= cycles
            st = ctx.stats
            st.compute_cycles += costs.compute[j]
            st.global_transactions += costs.transactions[j]
            st.coalesced_transactions += costs.coalesced[j]
            st.scattered_transactions += costs.scattered[j]
            a, b = rec.off[j], rec.off[j + 1]
            if a == b and sched is not None and p + 1 < end:
                k = self._run_ahead(ctx, sched, rec, j, end - p - 1)
                if k:
                    p += k
                    j += k
                    fs_p[d] = p + 1
                    assign[qv] = int(buf[p])
                    a, b = rec.off[j], rec.off[j + 1]
            kids = rec.kids
            recorded = b <= kids.covered
            self.pending = (1, kids.cands[a:b], nxt, (kids, a) if recorded else None, qv)
            self.staged = b > a and not recorded and self.gen_levels[nxt]
            return True
        return False

    def _run_ahead(
        self, ctx: WarpContext, sched: BlockScheduler, rec, j: int, room: int
    ) -> int:
        """Run the top frame ahead after candidate ``j``'s generation
        came out empty: perform the resumptions that would consume its
        next candidates (at most ``room``), through the first one with
        children, for as long as each starts strictly before the
        block's observer horizon. Returns how many it performed.

        Each is what the oracle resumes for a childless candidate —
        clear the slot, take the next candidate, charge its generation
        — and touches no gauge, no emit and no shared word; only the
        frame's cursor and the assignment move, and only a sibling's
        idle-handler scan or the idle model reads those. Before the
        horizon nothing does, so the block's schedule, every charge and
        everything a sibling sees are the oracle's; the charges are one
        slice of the record's segments, and ``level_steps`` still
        counts each resumption."""
        span = sched.horizon(ctx.warp_id) - ctx.clock
        if span <= 0:
            return 0
        k = rec.childless_run(j, span, j + room)
        rec.costs.apply_run(ctx, j + 1, j + k + 1)
        sums = rec.clock_sums()
        self.state["frames"].clock_ahead -= sums[j + k + 1] - sums[j + 1]
        sched.level_steps += k
        return k

    def lookahead(self) -> int:
        """The recorded Gen-Candidates cycles of every unconsumed
        candidate on the frame stack: each is charged at the end of a
        resumption that yields, so before the last one starts (pending
        attaches, queued items and frames without a record count 0).
        Only a thief could take some away, by a scan, and the horizon
        this bounds comes before every scan."""
        state = self.state
        return 0 if state is None else state["frames"].clock_ahead


def _spawn_worker(ctx: WarpContext, env: _Env, items: list[dict]):
    """A DFS worker in the launch's task form: a level-stepped cursor on
    the vectorized path, the generator oracle otherwise."""
    if env.config.vectorized:
        return _DfsLevelCursor(ctx, env, items)
    return _worker(ctx, env, items)


def _make_step_coalescer(sched: BlockScheduler, env: _Env):
    """Launch-wide fused Gen-Candidates on the vectorized path.

    Installed as the scheduler's level-barrier hook: right before a DFS
    cursor steps, collect the staged candidate-generation requests
    (:meth:`_DfsLevelCursor.staged_gen`) of every sibling cursor
    targeting the same ``(group, level)`` and run each class of at
    least two as ONE :func:`_level_children` batch, handing each cursor
    its precomputed children and priced cost segments through
    ``_prefetch``. Purely host-side: no cycle charge, no shared-memory
    traffic, and each cursor still pays its own per-child segments at
    its own consumption steps — the modeled schedule and every stat are
    byte-identical to inline generation. A lone request generates
    inline at push.
    """

    def coalesce(cursor: LevelCursor) -> None:
        if type(cursor) is not _DfsLevelCursor or not cursor.staged:
            return
        # one scan classifies every staged sibling request by its
        # (group, level) generation target; every class of two or more
        # fuses now — staged inputs are stable until each owner's next
        # resumption, so generating early is value- and cost-identical
        classes: dict[tuple[int, int], tuple] = {}
        for g in sched.generators.values():
            if type(g) is _DfsLevelCursor and g.staged:
                group, lv, request = g.staged_gen()
                cls = classes.get((id(group), lv))
                if cls is None:
                    cls = classes[id(group), lv] = (group, lv, [], [])
                cls[2].append(g)
                cls[3].append(request)
        for group, lv, cursors, requests in classes.values():
            if len(requests) < 2:
                continue
            batch = [(prefix(lv), cands, rank) for prefix, cands, rank in requests]
            results = _level_children(env, group, lv, batch, sched.params)
            for g, (rec, base) in zip(cursors, results):
                g._prefetch = (lv, rec, base)
                g.staged = False

    return coalesce


def _estimate_remaining(state: dict) -> int:
    est = len(state["queue"]) * _QUEUE_ITEM_WEIGHT
    frames = state["frames"]
    if type(frames) is _FrameStack:
        return est + frames.remaining()
    for fr in frames:
        est += max(0, len(fr["cands"]) - fr["p"])
    return est


def _stealable(victim: dict) -> bool:
    """Whether :func:`_steal_from` would take loot from this
    level-stepped state, without taking it."""
    return len(victim["queue"]) >= 2 or victim["frames"].splittable()


def _steal_from(victim: dict, env: _Env) -> Optional[dict]:
    """Take half the victim's pending queue, else split the shallowest
    frame with at least two unexplored candidates."""
    queue = victim["queue"]
    if len(queue) >= 2:
        take = len(queue) // 2
        stolen = queue[:take]
        del queue[:take]
        return {"items": stolen}
    order = victim["order"]
    assign = victim["assign"]
    frames = victim["frames"]
    if type(frames) is _FrameStack:  # level-stepped victim: array layout
        return frames.steal_shallowest(order, assign)
    for fr in frames:
        remaining = len(fr["cands"]) - fr["p"]
        if remaining >= 2:
            mid = fr["p"] + remaining // 2
            stolen_cands = fr["cands"][mid:]
            del fr["cands"][mid:]  # in-place: victim sees the truncation
            lv = fr["level"]
            prefix = {order[i]: assign[order[i]] for i in range(lv)}
            # find group/dedup/rank through the queue-free path: the
            # victim's current item context lives in its frames' shared
            # state, captured by :func:`_loot_items`
            return {
                "frame_steal": True,
                "level": lv,
                "cands": stolen_cands,
                "assign": prefix,
            }
    return None


def _loot_items(victim: dict, loot: dict) -> list[dict]:
    """The work items :func:`_steal_from`'s loot becomes: the queue
    items it took, or one item resuming the split frame's tail (with
    its record handle, on the level-stepped layout) in the victim's
    current item context."""
    if "items" in loot:
        return loot["items"]
    group = victim["current_group"]
    return [
        {
            "group": group,
            "assign": loot["assign"],
            "level": loot["level"],
            "cands": loot["cands"],
            "dedup": victim["current_dedup"],
            "rank": victim["current_rank"],
            "permuted": loot["level"] >= len(group.core),
            "rec": loot.get("rec"),
        }
    ]


def _passive_donate(ctx: WarpContext, env: _Env, state: dict) -> None:
    """Busy warp pushes work to a parked sibling (passive stealing)."""
    if "_sched" not in ctx.shared:
        return
    sched: BlockScheduler = ctx.shared_read("_sched")
    parked = sched.parked_warps()
    if not parked:
        return
    ctx._charge(ctx.params.steal_check_cycles)
    loot = _steal_from(state, env)
    if loot is None:
        return
    target = min(parked)
    items = _loot_items(state, loot)
    ctx.stats.steals += 1
    target_ctx = sched.contexts[target]
    sched.push_work(target, _spawn_worker(target_ctx, env, items), ctx.clock)
