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
starts from the buffer entries the loop began with.  The relaxed interpreter
(`relaxed.py`) runs the same rules and adds its fused loop.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import MissingString, PrimitiveDomainError, ScoreNaN
from .evalexpr import eval_expr
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import PMap
from .rdb import Rdb
from .state import (SPARSE, Lanes, LoopRound, Relocation, TgtOutcome,
                    make_state)
from .syntax import (Assign, Cmd, ExtendedLoopShift, ExtendIndex, Fetch, For,
                     Ifz, LookupIndex, LoopFixpt, Score, Seq, Shift, Skip,
                     Variable, free_vars, walk, validate_tier)

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
    # each slot of the downward closure, as the chain's own object, so that
    # the relocated entries keep sharing the chain's prefixes
    down = {p: p for i in chain.members for p in i.prefixes()}
    for target in chain:
        if not target.pairs or target.pairs[-1][0] != name:
            continue
        k = target.pairs[-1][1]
        if k == 0:
            rho[target.parent()] = target
        else:
            source = down.get(target.parent().append(name, k - 1))
            if source is not None:
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


def loop_sites(program: Cmd) -> dict[int, int]:
    """Loop node identity -> preorder site number."""
    sites: dict[int, int] = {}
    for node in walk(program):
        if isinstance(node, (LoopFixpt, ExtendedLoopShift)):
            sites[id(node)] = len(sites)
    return sites


class _TargetRun:
    """The command rules, shared by the target and the relaxed tier.

    Each rule returns the new state and adds its scores into `score`, the
    run's buffer, which holds an entry for every index of every active
    chain.  `first` is None in target runs.  Relaxed runs set it to a record
    {Variable: {Index: bit}} of each variable's first access per index,
    read (0) or write (1); the rules report their accesses through `reads`
    and `writes`, in execution order.
    """

    def __init__(self, program: Cmd, db: Rdb, mode: str, chain: AChain):
        self.db = db
        self.mode = mode
        self.sites = loop_sites(program)
        self.score: dict[Index, float] = dict.fromkeys(chain, 0.0)
        self.trace: list[LoopRound] = []
        self.first: Optional[dict[Variable, dict[Index, int]]] = None

    def eval_at(self, expr, state, i: Index):
        return eval_expr(expr, lambda var: state.read(var, i))

    def values(self, expr, state, chain: AChain) -> Lanes:
        """The values of `expr` on the chain: the state's lanes when it
        evaluates a whole chain at once, else one evaluation per thread."""
        lanes = state.lanes(expr, chain)
        if lanes is None:
            lanes = Lanes(chain, [self.eval_at(expr, state, i) for i in chain])
        return lanes

    def reads(self, expr, chain: AChain) -> None:
        """Note a read of each free variable of `expr` on the chain."""
        if self.first is not None:
            for var in free_vars(expr):
                self.note(var, ((i, 0) for i in chain))

    def writes(self, var: Variable, chain: AChain) -> None:
        """Note a write of `var` on the chain."""
        if self.first is not None:
            self.note(var, ((i, 1) for i in chain))

    def note(self, var: Variable, bits) -> None:
        """Record (index, bit) pairs; an index's first access sticks."""
        cell = self.first.setdefault(var, {})
        for i, b in bits:
            cell.setdefault(i, b)

    def run(self, c: Cmd, state, chain: AChain):
        """Run `c` on the chain and return the new state."""
        if isinstance(c, Skip):
            return state
        if isinstance(c, Score):
            score = self.score
            # per thread, each value is checked before the next thread runs;
            # lanes that evaluated without error can fail only by a NaN
            lanes = state.lanes(c.expr, chain)
            values = (lanes.python() if lanes is not None else
                      (self.eval_at(c.expr, state, i) for i in chain))
            for i, value in zip(chain, values):
                if math.isnan(value):
                    raise ScoreNaN(f"score evaluated to NaN at {i.text()}")
                score[i] += value
            self.reads(c.expr, chain)
            return state
        if isinstance(c, Assign):
            written = self.values(c.expr, state, chain)
            self.reads(c.expr, chain)
            self.writes(c.var, chain)
            return state.updated(c.var, written)
        if isinstance(c, Fetch):
            written = state.fetched(c.index, chain, self.db)
            if written is None:
                written = Lanes(chain, [
                    self.db.lookup(self.eval_at(c.index, state, i))
                    for i in chain])
            self.reads(c.index, chain)
            self.writes(c.var, chain)
            return state.updated(c.var, written)
        if isinstance(c, Seq):
            for item in c.items:
                state = self.run(item, state, chain)
            return state
        if isinstance(c, Ifz):
            zero, nonzero = state.split(self.values(c.cond, state, chain))
            self.reads(c.cond, chain)
            state = self.run(c.then, state, zero)
            return self.run(c.orelse, state, nonzero)
        if isinstance(c, For):
            for k in range(c.count):
                state = state.updated(c.var, Lanes(chain, [k] * len(chain)))
                self.writes(c.var, chain)
                state = self.run(c.body, state, chain)
            return state
        if isinstance(c, LookupIndex):
            found: list[int] = []
            for i in chain:
                value = i.lookup(c.name)
                if value is None:
                    raise MissingString(
                        f'lookup_index("{c.name}") under {i.text()}'
                    )
                found.append(value)
            self.writes(c.var, chain)
            return state.updated(c.var, Lanes(chain, found))
        if isinstance(c, Shift):
            return state.copied(shift_rho(chain, c.name))
        if isinstance(c, ExtendIndex):
            inner = chain.extend(c.name, c.count)
            self.score.update(dict.fromkeys(inner, 0.0))
            state = self.run(c.body, state, inner)
            return self.leave(state, chain, c.name, c.count)
        if isinstance(c, LoopFixpt):
            return self.run_loop(c, state, chain)
        raise TypeError(f"not a target command: {c!r}")

    def run_loop(self, c: LoopFixpt, state, chain: AChain):
        def one_round(k: int, state):
            after = self.run(c.body, state, chain)
            return after, self.mode == FIXPOINT and state.same_function(after)

        restore = {i: self.score[i] for i in chain}
        return self.run_rounds(c, restore, one_round, state)

    def run_rounds(self, c: Cmd, restore: dict, one_round, state):
        """Up to `c.count` rounds of a loop, traced.  Each first resets the
        score entries in `restore`; `one_round(k, state)` returns round
        k's state and whether it is a fixed point, which ends the loop."""
        hit, rounds = False, 0
        while not hit and rounds < c.count:
            self.score.update(restore)
            state, hit = one_round(rounds, state)
            rounds += 1
        self.trace.append(LoopRound(self.sites[id(c)], rounds, hit))
        return state

    def leave(self, state, chain: AChain, name: str, count: int):
        """Restore `chain` after a body ran under chain.extend(name, count):
        the last slot's values move down and each index takes its slots'
        scores, which leave the buffer."""
        score = self.score
        for i in chain:
            score[i] += sum(score.pop(i.append(name, k)) for k in range(count))
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
