"""The recorded (de)allocation replay (paper §4.2), solved as arrays.

:meth:`repro.simgpu.memory.DeviceAllocator.replay` replays a recorded
sequence of ``malloc`` / ``free`` / ``pool_free`` / ``empty_cache`` rows
and must leave the allocator exactly as the same calls made one by one
would.  :func:`solve` computes that outcome for a row range without a
per-row Python step:

- **Classes.**  A free list is keyed by ``(pool, aligned size)``, and an
  address never changes class, so each class is an independent LIFO
  stack.  An allocation pops its own class; a free pushes the class of
  the allocation it names.  ``empty_cache`` rows split the range into
  segments whose stacks start empty; the first segment's stacks start
  from the allocator's current free lists (the *seeds*).
- **Clamped stack depth.**  Sorted stably by (segment, class), each
  stack's depth is a running sum of +1 (push) and -1 (pop) clamped at
  zero.  A pop at depth zero finds its list empty: it is a bump
  allocation, and bump addresses are the cursor plus a cumulative sum of
  the bump sizes.
- **Matching.**  Within one stack, the pushes that reach depth ``d`` and
  the pops that leave it alternate in time, so one more stable sort by
  (stack, depth) puts every pop right after the push it takes back.
- **Chains.**  A reused block's address is the address of the allocation
  its free names; those links point strictly back in time and end at a
  bump or at an address that predates the range.  Pointer jumping
  (``parent = parent[parent]``) resolves every allocation to that root
  in a logarithmic number of gathers.

One sort of all events by (root address, time) then checks every free
(it must follow a live allocation of its address) and gives each
allocation its fate: live at the end, superseded by a reuse, or released
by a cudaFree or an ``empty_cache``.  No row's outcome depends on a later
row, so a range holding an invalid row still solves correctly up to it:
the caller re-solves the prefix before the first failing row, applies
that and raises.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import (
    IllegalMemoryAccessError,
    OutOfMemoryError,
    RestorationError,
)

#: Replay-table kind codes; any other code replays as ``empty_cache``.
ALLOC, FREE = 0, 1

# Event types of the per-address sort: an owner from before the range, an
# allocation, and a push (a seed entry or a free).
_OWNER, _MALLOC, _PUSH = 0, 1, 2


class Solution(NamedTuple):
    """What replaying one row range does to the allocator.

    With ``error`` set, the range fails at ``error_row`` (relative to its
    start), ``rows`` counts the rows that still take effect (a drifted
    allocation is made before it is checked), and the other fields are
    None.
    """

    rows: int                   # rows solved
    error_row: Optional[int]
    error: Optional[Exception]
    addresses: np.ndarray       # per new allocation, in row order
    sizes: np.ndarray           # aligned sizes, per new allocation
    live: np.ndarray            # still owns its block at the end
    poisoned: np.ndarray        # released by a cudaFree or empty_cache
    sources: np.ndarray         # id of the carried payload (-1: None)
    payloads: List[object]      # the carried payloads by id
    dead_owners: List[int]      # addresses whose earlier owner died
    poisoned_owners: List[int]  # ...of those, the ones released
    free_lists: Dict[Tuple[str, int], list]
    cursor: int
    in_use: int
    peak: int                   # highest bytes in use after an allocation


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` (radix when small)."""
    top = int(keys.max()) if keys.size else 0
    for dtype in (np.uint8, np.uint16):
        if top <= np.iinfo(dtype).max:
            return np.argsort(keys.astype(dtype), kind="stable")
    return np.argsort(keys, kind="stable")


def _match_stacks(segment: np.ndarray, classes: int, op_class: np.ndarray,
                  push: np.ndarray) -> np.ndarray:
    """LIFO matching: for each pop, the push whose entry it takes (-1 for
    a pop from an empty stack).  Op ``i`` works on stack ``segment[i] *
    classes + op_class[i]``; ``push`` tells pushes from pops; the ops are
    in time order."""
    group = segment * classes
    group += op_class
    ops = group.size
    order = _stable_order(group)
    group = group[order]
    push = push[order]
    step = np.where(push, np.int8(1), np.int8(-1))
    first = np.ones(ops, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    del group
    run = np.cumsum(first) - 1
    total = np.cumsum(step)
    within = total - (total - step)[first][run]
    del total, step
    # Depth after each op: the running sum, clamped at zero per stack.
    spread = 2 * ops + 2
    floor = run * spread
    floor = np.minimum.accumulate(within - floor) + floor
    depth = within - np.minimum(floor, 0)
    del within, floor
    depth_before = np.empty_like(depth)
    depth_before[1:] = depth[:-1]
    depth_before[first] = 0
    del first
    paired = np.flatnonzero(push | (depth_before > 0))
    level = np.where(push, depth, depth_before)[paired]
    del depth, depth_before
    by_level = paired[_stable_order(
        run[paired] * (int(level.max(initial=0)) + 1) + level)]
    del paired, level, run
    pops = np.flatnonzero(~push[by_level])
    match = np.full(ops, -1, dtype=np.int64)
    match[order[by_level[pops]]] = order[by_level[pops - 1]]
    return match


def _address_events(owned: np.ndarray, alloc_op: np.ndarray,
                    alloc_root: np.ndarray, push_op: np.ndarray,
                    push_root: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Every event on a block, sorted by (root, time): ``(root, type,
    ref)`` columns.  Older owners come first, then the ops in time order;
    ``ref`` is the owner's root, the allocation's ordinal or the push's
    op."""
    root = np.concatenate([owned, alloc_root, push_root])
    time = np.concatenate([np.zeros(owned.size, dtype=np.int64),
                           1 + alloc_op, 1 + push_op])
    kind = np.concatenate([np.full(owned.size, _OWNER),
                           np.full(alloc_op.size, _MALLOC),
                           np.full(push_op.size, _PUSH)])
    ref = np.concatenate([owned, np.arange(alloc_op.size), push_op])
    order = np.argsort(root * (int(time.max(initial=0)) + 1) + time)
    return root[order], kind[order], ref[order]


def _failed(rows: int, row: int, error: Exception) -> Solution:
    return Solution(rows, row, error, *([None] * 12))


def solve(columns, start: int, stop: int, *, alignment: int,
          next_index: int, cursor: int, in_use: int, capacity: int,
          index_address: np.ndarray, live: dict,
          free_lists: dict) -> Solution:
    """Solve rows ``[start, stop)`` of a replay table as arrays.

    ``columns`` holds the :class:`~repro.core.binfmt.ReplayTable` columns
    and string tables; every allocation row must have ``0 < size <=
    capacity`` (the caller checks), and sizes round up to a multiple of
    ``alignment``.  The allocator state enters as ``next_index`` (its
    allocation count), ``cursor``, ``in_use``, ``index_address`` (address
    by allocation index), and its ``live`` and ``free_lists`` dicts,
    which are only read.

    Each table-length temporary is deleted once dead: the working set,
    not the arithmetic, bounds the memory a large solve takes.
    """
    kind = columns.kind[start:stop]
    named = np.asarray(columns.alloc_index[start:stop], dtype=np.int64)
    pooled = columns.pooled[start:stop] != 0
    n = stop - start
    is_alloc = kind == ALLOC
    is_free = kind == FREE
    is_cache = ~(is_alloc | is_free)
    alloc_rows = np.flatnonzero(is_alloc)
    count = alloc_rows.size
    aligned = (np.asarray(columns.size[start:stop], dtype=np.int64)[
        alloc_rows] + alignment - 1) // alignment * alignment

    # -- what each free names: a new allocation, an older one, or nothing -
    free_rows = np.flatnonzero(is_free)
    target = named[free_rows]
    fresh = target - next_index
    is_fresh = (fresh >= 0) & (fresh < np.searchsorted(alloc_rows,
                                                       free_rows))
    is_old = (target >= 0) & (target < next_index)
    known = is_fresh | is_old
    del is_free

    # Older addresses the range can touch: those its frees name, and
    # those on the free lists (the seeds, bottom of each list first).
    seed_entries: List[tuple] = []
    seed_key: List[Tuple[str, int]] = []
    for key, entries in free_lists.items():
        seed_entries.extend(entries)
        seed_key.extend([key] * len(entries))
    seeds = len(seed_entries)
    seed_address = np.array([e[0] for e in seed_entries], dtype=np.int64)
    roots_old = np.unique(np.concatenate([index_address[target[is_old]],
                                          seed_address]))
    del is_old
    old_count = roots_old.size
    owners = [live.get(address) for address in roots_old.tolist()]
    key_of = dict(zip(seed_address.tolist(), seed_key))
    pool_ids = {name: i for i, name in enumerate(columns.pools)}
    old_pool = np.zeros(old_count, dtype=np.int64)
    old_size = np.zeros(old_count, dtype=np.int64)
    for position, (address, owner) in enumerate(
            zip(roots_old.tolist(), owners)):
        pool, size = (owner.pool, owner.size) if owner is not None \
            else key_of.get(address, ("", 0))
        old_pool[position] = pool_ids.setdefault(pool, len(pool_ids))
        old_size[position] = size
    pool_names = list(pool_ids)

    # -- classes ----------------------------------------------------------
    span = int(max(aligned.max(initial=0), old_size.max(initial=0))) + 1
    new_pool = columns.pool_id[start:stop][alloc_rows].astype(np.int64)
    class_keys, inverse = np.unique(np.concatenate(
        [new_pool * span + aligned, old_pool * span + old_size]),
        return_inverse=True)
    del new_pool
    inverse = inverse.reshape(-1)
    classes = class_keys.size
    alloc_class = inverse[:count]
    old_class = inverse[count:]

    # -- stack operations: the seeds, then the rows in time order --------
    # An op's index is its time: the seed entries (pushes), then the
    # allocations (pops) and the frees of known blocks (pushes).  A push
    # carries its block's root: an older address, or (a fresh free) the
    # root of the new allocation it names, known once the chains are.
    is_op = is_alloc.copy()
    is_op[free_rows[known]] = True
    op_rows = np.flatnonzero(is_op)
    del is_op
    ops = seeds + op_rows.size
    alloc_op = seeds + np.flatnonzero(is_alloc[op_rows])
    free_op = seeds + np.flatnonzero(~is_alloc[op_rows])
    del is_alloc
    fresh_free = is_fresh[known]
    fresh_op = free_op[fresh_free]
    fresh_target = fresh[known][fresh_free]
    old_op = free_op[~fresh_free]
    old_root = np.searchsorted(roots_old, index_address[
        target[known][~fresh_free]])
    del fresh_free, fresh, is_fresh
    seed_root = np.searchsorted(roots_old, seed_address)
    op_segment = np.zeros(ops, dtype=np.int64)
    op_segment[seeds:] = np.cumsum(is_cache)[op_rows]
    last_segment = int(np.count_nonzero(is_cache))
    op_class = np.empty(ops, dtype=np.int64)
    op_class[:seeds] = old_class[seed_root]
    op_class[alloc_op] = alloc_class
    op_class[fresh_op] = alloc_class[fresh_target]
    op_class[old_op] = old_class[old_root]
    del inverse, alloc_class, old_class
    op_push = np.ones(ops, dtype=bool)
    op_push[alloc_op] = False
    op_pooled = np.empty(ops, dtype=bool)
    op_pooled[:seeds] = [bool(entry[1]) for entry in seed_entries]
    op_pooled[seeds:] = pooled[op_rows]
    del pooled
    op_size = np.zeros(ops, dtype=np.int64)      # a push's block size
    op_size[:seeds] = old_size[seed_root]
    op_size[fresh_op] = aligned[fresh_target]
    op_size[old_op] = old_size[old_root]
    op_root = np.full(ops, -1, dtype=np.int64)   # a push's block root
    op_root[:seeds] = seed_root
    op_root[old_op] = old_root
    del old_op, old_root
    match = _match_stacks(op_segment, classes, op_class, op_push)
    taken = np.zeros(ops, dtype=bool)
    taken[match[match >= 0]] = True
    pushed = match[alloc_op]                     # -1 for bumps
    del match
    is_bump = pushed < 0
    entry_pooled = ~is_bump & op_pooled[pushed]

    # -- addresses: bumps, then each chain resolved to its root ----------
    bumps = np.flatnonzero(is_bump)
    bump_sizes = aligned[bumps]
    root_address = np.concatenate(
        [roots_old, cursor + np.cumsum(bump_sizes) - bump_sizes])
    parent = np.arange(count)
    root = np.zeros(count, dtype=np.int64)
    root[bumps] = old_count + np.arange(bumps.size)
    op_parent = np.full(ops, -1, dtype=np.int64)
    op_parent[fresh_op] = fresh_target
    reuses = np.flatnonzero(~is_bump)
    links = op_parent[pushed[reuses]]
    del op_parent
    chained = links >= 0
    parent[reuses[chained]] = links[chained]
    root[reuses[~chained]] = op_root[pushed[reuses[~chained]]]
    del reuses, links, chained
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    root = root[parent]
    del parent, jumped
    addresses = root_address[root]
    op_root[fresh_op] = root[fresh_target]
    del fresh_op, fresh_target

    # -- bytes in use; OOM, drift and unknown indices --------------------
    added = np.where(entry_pooled, 0, aligned)   # per allocation
    delta = np.zeros(n, dtype=np.int64)
    delta[alloc_rows] = added
    delta[op_rows[free_op - seeds]] = np.where(op_pooled[free_op], 0,
                                               -op_size[free_op])
    if last_segment:
        # An empty_cache releases its segment's pooled entries left over.
        released = np.flatnonzero(op_push & ~taken & op_pooled
                                  & (op_segment < last_segment))
        per_segment = np.zeros(last_segment, dtype=np.int64)
        np.add.at(per_segment, op_segment[released], op_size[released])
        delta[is_cache] = -per_segment
    del op_size, is_cache
    in_use_end = in_use + int(delta.sum())
    before = np.cumsum(delta)
    before -= delta
    del delta
    before = in_use + before[alloc_rows]
    peak = int((before + added).max(initial=0))
    del added

    failures = []                        # (row, error, rows kept)
    oom = np.flatnonzero(before + aligned > capacity)
    if oom.size:
        k = int(oom[0])
        row = int(alloc_rows[k])
        failures.append((row, OutOfMemoryError(
            f"device OOM: in use {int(before[k])} + request "
            f"{int(aligned[k])} > capacity {capacity}"), row))
    del before
    drift = np.flatnonzero(named[alloc_rows]
                           != next_index + np.arange(count))
    if drift.size:
        k = int(drift[0])
        row = int(alloc_rows[k])
        failures.append((row, RestorationError(
            f"replay drift: allocation came back as index "
            f"{next_index + k}, artifact expects {int(named[row])}"),
            row + 1))
    unknown = np.flatnonzero(~known)
    if unknown.size:
        k = int(unknown[0])
        row = int(free_rows[k])
        failures.append((row, RestorationError(
            f"indirect index {int(target[k])} points outside the "
            f"replayed allocation sequence"), row))

    del alloc_rows, free_rows, target, known

    # -- one sort of every event by (root address, time) -----------------
    pushes = np.flatnonzero(op_push)
    ev_root, ev_type, ev_ref = _address_events(
        np.flatnonzero([owner is not None for owner in owners]), alloc_op,
        root, pushes, op_root[pushes])
    del pushes, alloc_op, root
    events = ev_root.size
    owns = ev_type != _PUSH
    same_root = np.zeros(events + 2, dtype=bool)   # as the event before
    same_root[1:events] = ev_root[1:] == ev_root[:-1]
    del ev_root
    # A free must follow a live owner of its block (a seed always does).
    frees = np.flatnonzero((ev_type == _PUSH) & (ev_ref >= seeds))
    bad = frees[~(owns[frees - 1] & same_root[frees])]
    if bad.size:
        op = int(ev_ref[bad].min())
        row = int(op_rows[op - seeds])
        address = int(root_address[op_root[op]])
        failures.append((row, IllegalMemoryAccessError(
            f"pool free of unknown or already-freed address 0x{address:x}"
            if op_pooled[op] else
            f"cudaFree of unknown or already-freed address "
            f"0x{address:x}"), row))
    if failures:
        # One row fails one way: OOM comes before the drift check.
        row, error, kept = min(failures, key=lambda failure: failure[0])
        return _failed(kept, row, error)

    # -- fates: what follows each owner of a block -----------------------
    # An owner's block is freed by the next event on its address (a free,
    # or a seed entry for an older owner), and reused by the one after.
    holders = np.flatnonzero(owns)
    freed = same_root[holders + 1]
    reused = freed & same_root[holders + 2]
    after = np.append(ev_ref, -1)[np.where(freed, holders + 1, -1)]
    after_pooled = np.append(op_pooled, False)[after]
    flushed = np.append(op_segment, last_segment)[after] < last_segment
    alive = ~freed | (after_pooled & ~reused & ~flushed)
    poison = freed & (~after_pooled | (~reused & flushed))
    del owns, same_root, freed, reused, after, after_pooled, flushed

    # Carried payloads: a block reused through a pooled entry hands the
    # previous owner's payload to the next one; any other start has none.
    payloads: List[object] = []
    payload_ids: Dict[int, int] = {}

    def payload_id(payload) -> int:
        if payload is None:
            return -1
        if id(payload) not in payload_ids:
            payload_ids[id(payload)] = len(payloads)
            payloads.append(payload)
        return payload_ids[id(payload)]

    refs = ev_ref[holders]
    is_owner = ev_type[holders] == _OWNER
    is_new = ~is_owner
    new_refs = refs[is_new]
    from_seed = ~is_bump & (pushed < seeds)
    origin = np.full(count, -1, dtype=np.int64)
    origin[from_seed] = [payload_id(seed_entries[s][2])
                         for s in pushed[from_seed].tolist()]
    source = np.full(holders.size, -1, dtype=np.int64)
    source[is_owner] = [payload_id(owners[r].payload)
                        for r in refs[is_owner].tolist()]
    source[is_new] = origin[new_refs]
    inherits = np.zeros(holders.size, dtype=bool)
    inherits[is_new] = ~from_seed[new_refs] & entry_pooled[new_refs]
    source = source[np.maximum.accumulate(
        np.where(inherits, 0, np.arange(holders.size)))]
    del inherits, origin, from_seed, pushed, is_bump, entry_pooled

    sources = np.empty(count, dtype=np.int64)
    sources[new_refs] = source[is_new]
    live_new = np.zeros(count, dtype=bool)
    live_new[new_refs] = alive[is_new]
    poisoned = np.zeros(count, dtype=bool)
    poisoned[new_refs] = poison[is_new]
    dead = is_owner & ~alive
    dead_owners = roots_old[refs[dead]].tolist()
    poisoned_owners = roots_old[refs[dead & poison]].tolist()
    del dead, refs, is_owner, is_new, new_refs, alive, poison, ev_type

    # -- the free lists left at the end ----------------------------------
    # Keys in the order free/pool_free first created them (setdefault),
    # entries bottom first; an empty_cache in the range cleared the dict.
    class_pool = (class_keys // span).tolist()
    class_size = (class_keys % span).tolist()
    keys = [(pool_names[p], s) for p, s in zip(class_pool, class_size)]
    lists: Dict[Tuple[str, int], list] = {} if last_segment else {
        key: [] for key in free_lists}
    final_frees = free_op[op_segment[free_op] == last_segment]
    firsts, at = np.unique(op_class[final_frees], return_index=True)
    for cls in firsts[np.argsort(at)].tolist():
        lists.setdefault(keys[cls], [])
    # A pooled entry carries its block's owner's payload: the owner is
    # the event just before the free in the per-address order.
    op_source = np.full(ops, -1, dtype=np.int64)
    op_source[ev_ref[frees]] = source[np.searchsorted(holders, frees - 1)]
    del ev_ref, frees, source, holders
    left = op_push & ~taken & (op_segment == last_segment)
    for op in np.flatnonzero(left).tolist():
        if op < seeds:
            lists[seed_key[op]].append(seed_entries[op])
            continue
        carried = int(op_source[op]) if op_pooled[op] else -1
        lists[keys[op_class[op]]].append((
            int(root_address[op_root[op]]), bool(op_pooled[op]),
            payloads[carried] if carried >= 0 else None))

    return Solution(
        rows=n, error_row=None, error=None, addresses=addresses,
        sizes=aligned, live=live_new, poisoned=poisoned, sources=sources,
        payloads=payloads, dead_owners=dead_owners,
        poisoned_owners=poisoned_owners, free_lists=lists,
        cursor=int(cursor + bump_sizes.sum()), in_use=in_use_end,
        peak=peak)
