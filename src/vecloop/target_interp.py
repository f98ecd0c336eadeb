"""Big-step interpreter for the vectorised target language.

A command runs under a random database, a state of lifted variables, and a
finite antichain of active indices, producing a new state.  Scores go into
a list with one slot per row of the base chain (`AChain.base_rows`), which
`extend_index` replaces with a fresh one at 0.0 for its inner chain and,
on leaving, folds each thread's slots into its row of the outer one; all
enter through one rule (`_TargetRun.add_scores`).  Loops come in two
modes: "fixpoint" stops re-running the body once a round leaves the state
unchanged (as a represented function), "unrolled" always runs the declared
number of rounds.  Both keep only the final round's scores: each round
starts from the buffer the loop began with (`run_rounds`).  A loop that
`loop_facts` admits runs its rounds on the state's lane arrays where the
backend offers them (`StateBase.resident`), through a body the backend
compiled once per loop node, by the same rules; where a lane rule cannot
give every thread's bits (`state.Declined`), the whole loop runs again
on the state (`run_loop`).  The per-thread rules (values, scores,
fetches and `lookup_index`) exist once, here, and `run` calls them on
either backend's state, which they read only through `column(var,
chain)`.  Each evaluates its expression once per chain
(`evalexpr.eval_column`), and only where that fails (`_TargetRun.column`,
the one place a failure is caught) once per thread from the same columns
(`_TargetRun.each`), failing as the first failing thread does.  A fetch
looks each index up once per run.  The relaxed interpreter (`relaxed.py`)
records each command's own accesses, runs it by the same rules, and adds
its fused loop.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import islice
from operator import add
from typing import Iterator, Optional

from .errors import MissingString, PrimitiveDomainError, ScoreNaN
from .evalexpr import eval_column, eval_expr
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import EXIT, SHIFT, PMap
from .rdb import Rdb
from .state import (SPARSE, Declined, Lanes, LoopRound, Relocation,
                    TgtOutcome, make_state)
from .syntax import (Assign, Cmd, ExtendedLoopShift, ExtendIndex, Fetch, For,
                     Ifz, LookupIndex, LoopFixpt, Score, Seq, Shift, Skip,
                     Variable, free_vars, subcommands, validate_tier)

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
    rho = Relocation(name=name, kind=SHIFT)
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
            {i.append(name, count - 1): i for i in chain}, name=name,
            kind=EXIT)
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
    buffer of the current base chain's rows.
    """

    def __init__(self, program: Cmd, db: Rdb, mode: str, chain: AChain):
        self.db = db
        self.mode = mode
        self.sites, self.resident = loop_facts(program)
        # db.lookup's value at each index a thread fetched, the database
        # being a function of the index
        self.lookup_memo: dict[Index, float] = {}
        self.inner_chains: dict[tuple, AChain] = {}
        self.score: list[float] = [0.0] * len(chain.base_rows[0])
        self.trace: list[LoopRound] = []

    # The per-thread rules: each gives an expression's value on every thread
    # of the chain in chain order, reading the state only through
    # `state.column(var, chain)`, and fails as the first failing thread
    # does.  Each walks the expression once per chain (`column`); only where
    # that fails does the rule run its per-thread loop (`each`) on the same
    # columns.

    def column(self, expr, state, chain: AChain) -> Optional[list]:
        """`expr` on every thread of the chain at once (`eval_column`), or
        None where some thread fails, so that the rule runs its per-thread
        loop, which raises the first failing thread's error.  The one place
        a failing thread is caught.  No thread, no walk: an `ifz` part may
        be empty."""
        if not chain:
            return []
        try:
            return eval_column(expr, partial(state.column, chain=chain),
                               len(chain))
        except Exception:
            return None

    def each(self, expr, state, chain: AChain) -> Iterator:
        """`expr` on each thread in turn (`eval_expr`), lazily, from its
        variables' columns, each read once."""
        columns = {var: state.column(var, chain=chain)
                   for var in free_vars(expr)}
        for t in range(len(chain)):
            yield eval_expr(expr, lambda var: columns[var][t])

    def values(self, expr, state, chain: AChain) -> list:
        found = self.column(expr, state, chain)
        return (found if found is not None
                else list(self.each(expr, state, chain)))

    def scores(self, expr, state, chain: AChain) -> list:
        """`values`, each checked for NaN before the next thread runs."""
        found = self.column(expr, state, chain)
        if found is not None and not any(map(math.isnan, found)):
            return found
        values = []
        for i, value in zip(chain, self.each(expr, state, chain)):
            if math.isnan(value):
                raise ScoreNaN(f"score evaluated to NaN at {i.text()}")
            values.append(value)
        return values

    def fetches(self, index, state, chain: AChain) -> list:
        """The database's value at the index `index` spells on each thread,
        looked up once per run (`lookup`)."""
        found = self.column(index, state, chain)
        return list(map(self.lookup, found if found is not None
                        else self.each(index, state, chain)))

    def indices(self, name: str, chain: AChain) -> list[int]:
        """Each thread's integer under `name`, which its index holds."""
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
            self.add_scores(chain, self.scores(c.expr, state, chain))
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
                c.var, Lanes(chain, self.indices(c.name, chain)))
        if isinstance(c, Shift):
            return state.copied(shift_rho(chain, c.name))
        if isinstance(c, ExtendIndex):
            return self.extend_index(c, state, chain, partial(self.run, c.body))
        if isinstance(c, LoopFixpt):
            return self.run_loop(c, state, chain)
        raise TypeError(f"not a target command: {c!r}")

    def run_loop(self, c: LoopFixpt, state, chain: AChain):
        """The loop's rounds: where the state offers lane arrays
        (`StateBase.resident`), through the body the backend compiled for
        them, which runs no command through `run`; else, and where a lane
        rule declines (`Declined`), on the state the loop entered with,
        from the score buffer it began with.  The declined lane run leaves
        no trace: `run_rounds` records a loop only once it completes."""
        def one_round(k: int, state):
            after = self.run(c.body, state, chain)
            return after, self.mode == FIXPOINT and state.same_function(after)

        writes = self.resident.get(id(c))
        lanes = None if writes is None else state.resident(c, writes, chain)
        if lanes is not None:
            # a runner that records each command's accesses (`relaxed`)
            # would miss those of a compiled body; no relaxed program holds
            # a loop
            assert type(self).run is _TargetRun.run, \
                "compiled loop under records"
            check, start = self.mode == FIXPOINT, self.score.copy()
            try:
                lanes = self.run_rounds(
                    c, lambda k, lanes: (lanes, lanes.round(self, check)),
                    lanes)
            except Declined:
                self.score[:] = start
            else:
                return lanes.written_back()
        return self.run_rounds(c, one_round, state)

    def run_rounds(self, c: Cmd, one_round, state):
        """Up to `c.count` rounds of a loop, traced, each from the score
        buffer the loop began with, so that only the final round's scores
        stay; `one_round(k, state)` returns round k's state and whether it
        is a fixed point, which ends the loop."""
        start, hit, rounds = self.score.copy(), False, 0
        while not hit and rounds < c.count:
            self.score[:] = start
            state, hit = one_round(rounds, state)
            rounds += 1
        self.trace.append(LoopRound(self.sites[id(c)], rounds, hit))
        return state

    def add_scores(self, chain: AChain, values) -> None:
        """The one rule that adds scores: each thread's value, in chain
        order, into its row of the buffer."""
        if chain.part is None:
            self.score[:] = map(add, self.score, values)
        else:
            for row, value in zip(chain.part[1], values):
                self.score[row] += value

    def extend_index(self, c, state, chain: AChain, run_body):
        """`run_body(state, inner)` under inner = chain.extend(c.name,
        c.count), on a fresh buffer, then `chain` restored: the last slot's
        values move down, and each thread's slots, which follow one another
        in inner's order, fold into its row of the outer buffer.  The copy
        is an exit (`exit_rho`), which leaves a grid as it is when the grid
        has no axis `c.name` and only axes of `chain`'s strings: after a
        lane-resident loop's write-back, every grid.  The inner chain is
        built once per run, so that under a loop it keeps its memo's data
        from one round to the next."""
        key = (chain, c.name, c.count)
        inner = self.inner_chains.get(key)
        if inner is None:
            inner = self.inner_chains[key] = chain.extend(c.name, c.count)
        outer, self.score = self.score, [0.0] * len(inner)
        state = run_body(state, inner)
        slots, self.score = iter(self.score), outer
        for row in chain.base_rows[1]:
            # a left fold: from Python 3.12 on, `sum` of floats compensates
            outer[row] += reduce(add, islice(slots, c.count), 0)
        return state.copied(exit_rho(chain, c.name, c.count))

    def score_map(self, chain: AChain) -> PMap:
        """The run's scores: the buffer's rows of the run's chain."""
        return PMap(zip(chain, map(self.score.__getitem__,
                                   chain.base_rows[1])))


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
    return TgtOutcome(final, runner.score_map(chain), tuple(runner.trace))
