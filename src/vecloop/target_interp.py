"""Big-step interpreter for the vectorised target language.

A command runs under a random database, a state of lifted variables, and a
finite antichain of active indices, producing a new state.  Scores go into
one buffer {Index: float} per run, which starts at 0.0 on the run's chain;
a score command adds into it at each active index, so at the end its
domain is exactly that chain.  `extend_index` starts its slots at 0.0 and,
on leaving, adds each index's slot sums to it.  Loops come in two modes:
"fixpoint" stops re-running the body once a round leaves the state
unchanged (as a represented function), "unrolled" always runs the declared
number of rounds.  Both keep only the final round's scores: each round
starts from the buffer entries the loop began with.  A loop that
`loop_facts` admits runs its rounds on the state's lane arrays where the
backend offers them (`StateBase.resident`), through a body the backend
compiled once per loop node, by the same rules.  The per-thread rules
(values, scores, fetches and `lookup_index`) exist once, here: `run`
calls them on either backend's state, and a compiled body where its lanes
decline, with the loop's registers as the reader.  Each evaluates its
expression once per chain (`evalexpr.eval_column`), reading each variable
as one column, and runs once per thread, failing as the first failing
thread does, only on a chain where the column fails (`_TargetRun.column`,
the one place a failure is caught).  A fetch looks each index up once per
run.  The relaxed interpreter (`relaxed.py`) records each command's own
accesses, runs it by the same rules, and adds its fused loop.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import Optional

from .errors import MissingString, PrimitiveDomainError, ScoreNaN
from .evalexpr import eval_column, eval_expr
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import PMap
from .rdb import Rdb
from .state import (SPARSE, Lanes, LoopRound, Relocation, TgtOutcome,
                    make_state)
from .syntax import (Assign, Cmd, ExtendedLoopShift, ExtendIndex, Fetch, For,
                     Ifz, LookupIndex, LoopFixpt, Score, Seq, Shift, Skip,
                     Variable, subcommands, validate_tier)

FIXPOINT = "fixpoint"
UNROLLED = "unrolled"


def shift_rho(chain: AChain, name: str) -> Relocation:
    """The relocation map of shift: each slot receives its predecessor.

    Slot (name, 0) receives the value below the name level; slot
    (name, k + 1) receives slot (name, k)'s when that slot lies in the
    chain's downward closure.  Built once per chain and name, since a loop
    shifts the same chain every round.
    """
    found = chain.memo.get(("shift", name))
    if found is not None:
        return found
    rho = Relocation()
    down = {p for i in chain.members for p in i.prefixes()}
    for target in chain:
        if not target.pairs or target.pairs[-1][0] != name:
            continue
        k = target.pairs[-1][1]
        if k == 0:
            rho[target.parent()] = target
        else:
            source = target.parent().append(name, k - 1)
            if source in down:
                rho[source] = target
    chain.memo[("shift", name)] = rho
    return rho


def exit_rho(chain: AChain, name: str, count: int) -> Relocation:
    """The relocation applied when extend_index restores its outer chain:
    each index receives its last slot's value.  Built once per chain, name
    and count."""
    key = ("exit", name, count)
    rho = chain.memo.get(key)
    if rho is None:
        rho = chain.memo[key] = Relocation(
            {i.append(name, count - 1): i for i in chain})
    return rho


def loop_facts(program: Cmd) -> tuple[dict[int, int],
                                       dict[int, frozenset[Variable]]]:
    """The program's loops, from one pass over it: each loop node's
    preorder site number, and the fixed-point loops a backend may run in
    lane arrays, each with the variables its body writes; both by node
    identity.

    Such a loop is the whole body of an extend_index(name, n); its body
    starts with shift(name) and holds no other shift, extend_index or
    loop, fixed-point or for.  This is what `vectorise` makes of an
    innermost for-loop: every round runs on the one chain the extend_index
    made, and only the extend_index's exit sees the state the loop leaves.
    """
    sites: dict[int, int] = {}
    resident: dict[int, frozenset[Variable]] = {}
    _writes(program, sites, resident)
    return sites, resident


def _writes(c: Cmd, sites: dict,
            resident: dict) -> Optional[frozenset[Variable]]:
    """The variables `c` writes, or None when it holds a shift, an
    extend_index or a loop; numbers the loops in preorder into `sites` and
    adds those `loop_facts` admits to `resident` on the way."""
    if isinstance(c, (LoopFixpt, ExtendedLoopShift)):
        sites[id(c)] = len(sites)
    if isinstance(c, ExtendIndex) and isinstance(c.body, LoopFixpt):
        sites[id(c.body)] = len(sites)
        body = c.body.body
        items = body.items if isinstance(body, Seq) else (body,)
        inner = [_writes(item, sites, resident) for item in items]
        if items[0] == Shift(c.name) and None not in inner[1:]:
            resident[id(c.body)] = frozenset().union(*inner[1:])
        return None
    subs = [_writes(sub, sites, resident) for sub in subcommands(c)]
    if None in subs or isinstance(c, (Shift, ExtendIndex, LoopFixpt,
                                      ExtendedLoopShift, For)):
        return None
    own = (c.var,) if isinstance(c, (Assign, Fetch, LookupIndex)) else ()
    return frozenset(own).union(*subs)


class _TargetRun:
    """The command rules, shared by the target and the relaxed tier.

    Each rule returns the new state and adds its scores into `score`, the
    run's buffer, which holds an entry for every index of every active
    chain.
    """

    def __init__(self, program: Cmd, db: Rdb, mode: str, chain: AChain):
        self.db = db
        self.mode = mode
        self.sites, self.resident = loop_facts(program)
        # db.lookup's value at each index a thread fetched, the database
        # being a function of the index
        self.lookup_memo: dict[Index, float] = {}
        self.inner_chains: dict[tuple, AChain] = {}
        self.score: dict[Index, float] = dict.fromkeys(chain, 0.0)
        self.trace: list[LoopRound] = []

    # The per-thread rules: each gives an expression's value on every thread
    # of the chain in chain order, reading through `reader.column(var,
    # chain)` (a state, or a lane-resident loop's registers), and fails as
    # the first failing thread does.  `run` calls them on any state, and a
    # compiled loop body where its lanes decline.  Each walks the
    # expression once per chain (`column`); only where that fails does the
    # rule run once per thread, reading through `reader.read(var, i)`.

    def column(self, expr, reader, chain: AChain) -> Optional[list]:
        """`expr` on every thread of the chain at once (`eval_column`), or
        None where some thread fails, so that the rule runs its per-thread
        loop, which raises the first failing thread's error.  The one place
        a failing thread is caught.  No thread, no walk: an `ifz` part may
        be empty."""
        if not chain:
            return []
        try:
            return eval_column(expr, partial(reader.column, chain=chain),
                               len(chain))
        except Exception:
            return None

    def values(self, expr, reader, chain: AChain) -> list:
        found = self.column(expr, reader, chain)
        if found is not None:
            return found
        return [eval_expr(expr, lambda var: reader.read(var, i))
                for i in chain]

    def scores(self, expr, reader, chain: AChain) -> list:
        """`values`, each checked for NaN before the next thread runs."""
        found = self.column(expr, reader, chain)
        if found is not None and not any(map(math.isnan, found)):
            return found
        values = []
        for i in chain:
            value = eval_expr(expr, lambda var: reader.read(var, i))
            if math.isnan(value):
                raise ScoreNaN(f"score evaluated to NaN at {i.text()}")
            values.append(value)
        return values

    def fetches(self, index, reader, chain: AChain) -> list:
        """The database's value at the index `index` spells on each thread,
        looked up once per run (`lookup`)."""
        found = self.column(index, reader, chain)
        if found is not None:
            return list(map(self.lookup, found))
        return [self.lookup(eval_expr(index, lambda var: reader.read(var, i)))
                for i in chain]

    def indices(self, name: str, reader, chain: AChain) -> list[int]:
        """Each thread's integer under `name`, which its index holds: the
        reader is not read."""
        values = []
        for i in chain:
            value = i.lookup(name)
            if value is None:
                raise MissingString(f'lookup_index("{name}") under {i.text()}')
            values.append(value)
        return values

    def lookup(self, index: Index) -> float:
        value = self.lookup_memo.get(index)
        if value is None:
            value = self.lookup_memo[index] = self.db.lookup(index)
        return value

    def run(self, c: Cmd, state, chain: AChain):
        """Run `c` on the chain and return the new state."""
        if isinstance(c, Skip):
            return state
        if isinstance(c, Score):
            for i, value in zip(chain, self.scores(c.expr, state, chain)):
                self.score[i] += value
            return state
        if isinstance(c, Assign):
            return state.updated(
                c.var, Lanes(chain, self.values(c.expr, state, chain)))
        if isinstance(c, Fetch):
            return state.updated(
                c.var, Lanes(chain, self.fetches(c.index, state, chain)))
        if isinstance(c, Seq):
            for item in c.items:
                state = self.run(item, state, chain)
            return state
        if isinstance(c, Ifz):
            cond = self.values(c.cond, state, chain)
            zero, nonzero = chain.compress(v == 0 for v in cond)
            state = self.run(c.then, state, zero)
            return self.run(c.orelse, state, nonzero)
        if isinstance(c, For):
            for k in range(c.count):
                state = state.updated(c.var, Lanes(chain, [k] * len(chain)))
                state = self.run(c.body, state, chain)
            return state
        if isinstance(c, LookupIndex):
            return state.updated(
                c.var, Lanes(chain, self.indices(c.name, state, chain)))
        if isinstance(c, Shift):
            return state.copied(shift_rho(chain, c.name))
        if isinstance(c, ExtendIndex):
            inner = self.extended(chain, c.name, c.count)
            self.score.update(dict.fromkeys(inner, 0.0))
            state = self.run(c.body, state, inner)
            return self.leave(state, chain, inner, c.name, c.count)
        if isinstance(c, LoopFixpt):
            return self.run_loop(c, state, chain)
        raise TypeError(f"not a target command: {c!r}")

    def run_loop(self, c: LoopFixpt, state, chain: AChain):
        """The loop's rounds: on the state, or, where the state offers lane
        arrays (`StateBase.resident`), through the body the backend
        compiled for them, which runs no command through `run`."""
        def one_round(k: int, state):
            after = self.run(c.body, state, chain)
            return after, self.mode == FIXPOINT and state.same_function(after)

        writes = self.resident.get(id(c))
        lanes = None if writes is None else state.resident(c, writes, chain)
        if lanes is None:
            restore = {i: self.score[i] for i in chain}
            return self.run_rounds(c, partial(self.score.update, restore),
                                   one_round, state)
        # a runner that records each command's accesses (`relaxed`) would
        # miss those of a compiled body; no relaxed program holds a loop
        assert type(self).run is _TargetRun.run, "compiled loop under records"
        check = self.mode == FIXPOINT
        lanes = self.run_rounds(
            c, lanes.restart, lambda k, lanes: (lanes, lanes.round(self, check)),
            lanes)
        return lanes.written_back(self.score)

    def run_rounds(self, c: Cmd, reset, one_round, state):
        """Up to `c.count` rounds of a loop, traced.  Each first calls
        `reset()`, which restores the score entries the loop began with;
        `one_round(k, state)` returns round k's state and whether it is a
        fixed point, which ends the loop."""
        hit, rounds = False, 0
        while not hit and rounds < c.count:
            reset()
            state, hit = one_round(rounds, state)
            rounds += 1
        self.trace.append(LoopRound(self.sites[id(c)], rounds, hit))
        return state

    def extended(self, chain: AChain, name: str, count: int) -> AChain:
        """chain.extend(name, count), built once per run, so that an
        extend_index under a loop finds the inner chain, and all the data
        its memo holds, from one round to the next."""
        key = (chain, name, count)
        inner = self.inner_chains.get(key)
        if inner is None:
            inner = self.inner_chains[key] = chain.extend(name, count)
        return inner

    def leave(self, state, chain: AChain, inner: AChain, name: str,
              count: int):
        """Restore `chain` after a body ran under inner = chain.extend(name,
        count): the last slot's values move down and each index takes its
        slots' scores, which leave the buffer.  In chain order, each
        index's slots follow one another in `inner`."""
        score, slots = self.score, iter(inner)
        for i in chain:
            score[i] += sum(score.pop(slot) for slot in islice(slots, count))
        return state.copied(exit_rho(chain, name, count))


def run_tgt(c: Cmd, db: Rdb, state=None, chain: AChain = ROOT_CHAIN,
            mode: str = FIXPOINT, backend: str = SPARSE) -> TgtOutcome:
    validate_tier(c, "target")
    if mode not in (FIXPOINT, UNROLLED):
        raise ValueError(f"unknown mode {mode!r}")
    if state is None:
        state = make_state(backend)
    runner = _TargetRun(c, db, mode, chain)
    try:
        final = runner.run(c, state, chain)
    except PrimitiveDomainError as err:
        raise err if err.path else err.with_path("target run") from None
    return TgtOutcome(final, PMap(runner.score), tuple(runner.trace))
