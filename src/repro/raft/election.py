"""Elections: the timer, pre-vote, vote, the voter side, retraction and
the §4.1 voting history (DESIGN.md §9 argues their safety).

Pre-vote, vote and a transfer target's §4.3 mock round (``transfer.py``)
run the same steps: :meth:`Election.open_tally`, ``broadcast``,
``tally_wins`` per answer. The voter side answers all three with one
response; only the rule differs (``evaluate``, ``evaluate_mock``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.raft.messages import RequestVoteRequest, RequestVoteResponse, VoteRetraction
from repro.raft.quorum import ElectionContext
from repro.raft.types import RaftRole

# Random extra election timeout in [0, jitter] decorrelates candidates.
ELECTION_TIMEOUT_JITTER = 0.5
# How long a candidate waits for votes before giving up its candidacy.
VOTE_TIMEOUT = 1.0
# A mock-election voter in the candidate's region denies its vote when it
# is *unhealthily* behind the cursor: more than this many entries, or
# silent from the leader beyond the failure-detection window. (A few
# entries of in-flight replication lag must not fail transfers.)
MOCK_ELECTION_MAX_LAG_ENTRIES = 500


@dataclass
class VoteTally:
    """Vote bookkeeping for one election round (real, pre, or mock)."""

    term: int
    granted: set = field(default_factory=set)
    denied: set = field(default_factory=set)
    # Best leader knowledge gathered from responses (FlexiRaft history).
    best_leader_term: int = 0
    best_leader_region: str | None = None
    # Vote-history knowledge from responses: term -> regions of candidates
    # some voter granted a real vote to at that term. Different voters may
    # back different candidates in one term, hence a set per term.
    history: dict = field(default_factory=dict)
    # The last-known leader a real election runs against: until it
    # answers, its vote is not one the candidate can hope for.
    presumed_dead: str | None = None

    @property
    def silent(self) -> frozenset:
        """The leader whose silence caused the election, while it stays
        silent: it has neither granted nor denied."""
        return frozenset({self.presumed_dead} - {None} - self.granted - self.denied)

    def attainable(self, voters) -> frozenset:
        """The most grants this round can still end with: every grant so
        far plus every voter that has not denied — except the presumed-
        dead leader."""
        return frozenset(voters) - self.denied - self.silent

    def record(self, voter: str, was_granted: bool) -> None:
        if was_granted:
            self.granted.add(voter)
            self.denied.discard(voter)
        elif voter not in self.granted:
            self.denied.add(voter)

    def learn_leader(self, term: int, region: str | None) -> None:
        if region is not None and term > self.best_leader_term:
            self.best_leader_term = term
            self.best_leader_region = region

    def learn_history(self, pairs) -> None:
        for term, region in pairs:
            self.history.setdefault(term, set()).add(region)


class Election:
    """A node's elections, as candidate and as voter. Rebuilt per
    incarnation; it acts only through ``send``, ``call_after`` and
    ``now``, and reads term, vote, log tail and membership from the node.
    Every election starts through ``RaftNode.start_election``."""

    def __init__(self, node: Any, send: Callable, call_after: Callable, now: Callable) -> None:
        self.node = node
        self.send = send
        self.call_after = call_after
        self.now = now
        self._durable = node._durable
        self._config = node.config
        self._rng = node.rng
        self._timer = None
        self._deadline = 0.0
        self.vote_tally: VoteTally | None = None
        self.pre_vote_tally: VoteTally | None = None
        # Leader contact, for the failure detector and leader stickiness.
        self.last_leader_contact = now()

    # -- durable knowledge: the vote, the last leader, the §4.1 history -------

    def voted_for(self, term: int) -> str | None:
        voted_term, candidate = self._durable["voted_for"]
        return candidate if voted_term == term else None

    def record_vote(self, term: int, candidate: str) -> None:
        self._durable["voted_for"] = (term, candidate)
        member = self.node.membership.member(candidate)
        # An unmappable candidate region is kept as "?" — the quorum
        # policy treats it as "winner's data quorum unknowable" and goes
        # pessimistic rather than silently ignoring it.
        region = member.region if member is not None else "?"
        history = dict(self._durable["vote_history"])
        history[term] = region
        self._durable["vote_history"] = tuple(sorted(history.items()))

    def drop_vote(self, term: int, candidate: str) -> bool:
        """Forget a retracted candidacy's (term, region) history entry."""
        if self.voted_for(term) != candidate:
            return False
        self._keep_history(lambda t: t != term)
        return True

    def _keep_history(self, keep: Callable[[int], bool]) -> None:
        retained = tuple((t, r) for t, r in self._durable["vote_history"] if keep(t))
        if retained != self._durable["vote_history"]:
            self._durable["vote_history"] = retained

    @property
    def vote_history(self) -> tuple:
        """(term, region) pairs: real votes granted at terms newer than the
        last known leader (§4.1 voting history)."""
        return self._durable["vote_history"]

    @property
    def last_known_leader_region(self) -> str | None:
        return self._durable["last_leader"][2]

    @property
    def last_known_leader_term(self) -> int:
        return self._durable["last_leader"][0]

    def learn_leader(self, term: int, name: str) -> None:
        if term >= self._durable["last_leader"][0]:
            member = self.node.membership.member(name)
            region = member.region if member else None
            self._durable["last_leader"] = (term, name, region)
            # Elected leaders subsume older vote history: a term-T winner's
            # log already covers anything committed at terms <= T, and
            # future elections intersect *its* region to inherit that.
            self._keep_history(lambda t: t > term)

    # -- the failure detector ---------------------------------------------------

    def _timeout(self) -> float:
        return self._config.election_timeout_base() + self._rng.uniform(
            0.0, ELECTION_TIMEOUT_JITTER
        )

    def reset_timer(self, detect: bool = True) -> None:
        """Push the election deadline out. The armed timer is *lazy*: it
        re-checks the deadline when it fires instead of being cancelled
        and re-armed on every heartbeat (heap-churn optimization).

        ``detect=False`` follows an abandoned election, which is not
        leader contact: the leader's silence has been measured already, so
        only the jitter is waited."""
        if not self.node._is_voter:
            return
        wait = self._timeout() if detect else self._rng.uniform(0.0, ELECTION_TIMEOUT_JITTER)
        self._deadline = self.now() + wait
        if not detect and self._timer is not None:
            self._timer.cancel()  # armed for a later deadline
            self._timer = None
        if self._timer is None:
            self._arm_timer()

    def refresh(self, reason: str) -> None:
        """Leader contact, or a granted vote: void any pre-vote, restart
        the failure detector."""
        self.abandon_pre_vote(reason)
        self.last_leader_contact = self.now()
        self.reset_timer()

    def stop_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm_timer(self) -> None:
        delay = max(0.0, self._deadline - self.now())
        self._timer = self.call_after(delay, self._on_timeout)

    def expire_timer(self) -> None:
        """The ``spurious_timeout`` fault: the failure detector misfires."""
        if self._timer is not None:
            self._timer.cancel()
        self._deadline = self.now()
        self._on_timeout()

    def _on_timeout(self) -> None:
        self._timer = None
        node = self.node
        if node.role == RaftRole.LEADER or not node._is_voter:
            return
        if self.now() < self._deadline - 1e-12:
            self._arm_timer()  # contact arrived since; wait more
            return
        node._trace("raft.election_timeout")
        self.start_pre_vote()
        self._deadline = self.now() + self._timeout()
        self._arm_timer()

    # -- a vote round -------------------------------------------------------------

    def open_tally(self, term: int, presumed_dead: str | None = None) -> VoteTally:
        """A round's tally: the candidate's own grant, and what it knows
        of the last leader."""
        tally = VoteTally(term=term, presumed_dead=presumed_dead)
        tally.record(self.node.name, True)
        tally.learn_leader(self.last_known_leader_term, self.last_known_leader_region)
        return tally

    def broadcast(self, message: Any) -> None:
        node = self.node
        for member in node.membership.voters():
            if member.name != node.name:
                self.send(member.name, message)

    @staticmethod
    def absorb(tally: VoteTally, resp: RequestVoteResponse) -> None:
        """Fold one vote response into the tally's FlexiRaft knowledge.

        Leader knowledge *relaxes* the required quorum (newer leader ⇒
        older history pruned, intersection region switched), so it is
        only taken from voters that granted — a grantor's leader
        knowledge is backed by its log, which the up-to-date check then
        chains into the candidate's. A denier's knowledge carries no such
        log guarantee and must not relax anything. Vote history only
        *tightens* the quorum, so it is welcome from every response.
        """
        tally.record(resp.voter, resp.granted)
        if resp.granted:
            tally.learn_leader(resp.last_leader_term, resp.last_leader_region)
        tally.learn_history(resp.vote_history)

    def tally_wins(self, tally: VoteTally, resp: RequestVoteResponse) -> bool:
        """Absorb one response; whether the round now holds an election
        quorum."""
        self.absorb(tally, resp)
        return self.would_elect(tally)

    def context(self, tally: VoteTally) -> ElectionContext:
        best_term = tally.best_leader_term
        best_region = tally.best_leader_region
        if best_term < self.last_known_leader_term:
            best_term = self.last_known_leader_term
            best_region = self.last_known_leader_region
        # Regions that may hide an unheard-of winner: every real vote —
        # ours or one reported by a responder — granted at a term newer
        # than the best leader anyone in the tally knows about.
        possible = set()
        for term, region in self.vote_history:
            if term > best_term:
                possible.add(region)
        # A vote reported at the tally's own term was cast for a rival, so
        # only a denial can carry it, and this candidate may win before any
        # denial arrives: safety cannot rest on it (DESIGN.md §9).
        for term, regions in tally.history.items():
            if best_term < term != tally.term:
                possible.update(regions)
        return ElectionContext(
            candidate=self.node.name,
            last_leader_region=best_region,
            possible_leader_regions=frozenset(possible),
        )

    def would_elect(self, tally: VoteTally, votes=None) -> bool:
        """Whether ``votes`` (default: the tally's grants) elect."""
        node = self.node
        granted = tally.granted if votes is None else votes
        return node._effective_policy().election_quorum_satisfied(
            frozenset(granted), node.membership, self.context(tally)
        )

    # -- the candidate side ---------------------------------------------------------

    def start_pre_vote(self) -> None:
        node = self.node
        node.metrics["pre_votes_started"] += 1
        term = node.current_term + 1
        tally = self.pre_vote_tally = self.open_tally(term)
        node._trace("raft.pre_vote_started")
        self.broadcast(RequestVoteRequest(
            term=term, candidate=node.name, last_opid=node.last_opid, is_pre_vote=True,
        ))
        if self.would_elect(tally):
            self._pre_vote_won()

    def _pre_vote_won(self) -> None:
        self.pre_vote_tally = None
        self.node._trace("raft.pre_vote_won")
        self.node.start_election()

    def abandon_pre_vote(self, reason: str) -> None:
        """A pre-vote asks "would you elect me, given that nobody leads?".
        Once this node votes for someone else, moves to another term or
        hears a leader, the question is void: completing it would start
        an election against what this node already knows."""
        if self.pre_vote_tally is not None:
            self.pre_vote_tally = None
            self.node.metrics["pre_votes_abandoned"] += 1
            self.node._trace("raft.pre_vote_abandoned", reason=reason)

    def start(self, is_transfer: bool) -> None:
        """``RaftNode.start_election``: become candidate, solicit votes."""
        node = self.node
        if not node._is_voter:
            return
        node.metrics["elections_started"] += 1
        node._become_follower_bookkeeping_only()
        node.role = RaftRole.CANDIDATE
        node._set_term(node.current_term + 1)
        term = node.current_term
        self.record_vote(term, node.name)
        # A transfer's old leader is alive and about to grant; any other
        # election runs against a last-known leader presumed dead.
        against = None if is_transfer else self._durable["last_leader"][1]
        tally = self.vote_tally = self.open_tally(term, presumed_dead=against)
        node._trace("raft.election_started", transfer=is_transfer)
        self.broadcast(RequestVoteRequest(
            term=term, candidate=node.name, last_opid=node.last_opid,
            is_leadership_transfer=is_transfer,
        ))
        if self.would_elect(tally):
            node._become_leader()
        # The backstop for voters that never answer.
        self.call_after(VOTE_TIMEOUT, self._on_vote_timeout, node.current_term)

    def _on_vote_timeout(self, term: int) -> None:
        node = self.node
        if node.role == RaftRole.CANDIDATE and node.current_term == term:
            self._abandon("vote-timeout")  # voters never answered

    def on_vote_response(self, src: str, resp: RequestVoteResponse) -> None:
        """A pre-vote or real vote answer (mock answers go to the
        transfer target's round)."""
        node = self.node
        if resp.term > node.current_term:
            node._step_down(resp.term, leader=None)
            return
        if resp.is_pre_vote:
            tally = self.pre_vote_tally
            if (
                tally is not None
                and self.tally_wins(tally, resp)
                and tally.term == node.current_term + 1
            ):
                self._pre_vote_won()
            return
        tally = self.vote_tally
        if tally is None or resp.term != node.current_term:
            # A grant that was in flight when its candidacy was abandoned
            # missed the retractions — unless this node won that term, or
            # cannot tell any more because it knows a newer leader.
            won = self._durable["last_leader"][:2]
            if resp.granted and won[0] <= resp.term and won != (resp.term, node.name):
                self.send(src, VoteRetraction(term=resp.term, candidate=node.name))
            return
        if (
            self.tally_wins(tally, resp)
            and node.role == RaftRole.CANDIDATE
            and tally.term == node.current_term
        ):
            node._become_leader()
        elif not resp.granted and not self.would_elect(
            tally, tally.attainable(node.membership.voter_names())
        ):
            self._abandon("hopeless")

    def _abandon(self, reason: str) -> None:
        """Revert to follower rather than hammering ever-higher terms; the
        next attempt goes through pre-vote again, so a candidate the ring
        keeps refusing (stickiness, short log) stops inflating terms."""
        self.node.role = RaftRole.FOLLOWER
        self.retract(reason)
        self.reset_timer(detect=False)

    def retract(self, reason: str) -> None:
        """Tell grantors to drop this abandoned candidacy from their
        voting histories. Discarding the tally makes winning ``term``
        impossible, so the retraction is safe; it restores liveness that
        durable histories would otherwise hold hostage to this node's
        region. Best-effort — an undelivered retraction just leaves the
        pessimistic (safe) requirement in place."""
        tally, self.vote_tally = self.vote_tally, None
        if tally is None:
            return
        node = self.node
        node.metrics["elections_abandoned"] += 1
        node._trace("raft.election_abandoned", reason=reason)
        retraction = VoteRetraction(term=tally.term, candidate=node.name)
        for voter in sorted(tally.granted):
            if voter != node.name:
                self.send(voter, retraction)
        # Our own self-vote is retracted locally the same way.
        self.drop_vote(tally.term, node.name)

    # -- the voter side --------------------------------------------------------------

    def on_request_vote(self, src: str, req: RequestVoteRequest) -> None:
        node = self.node
        if req.is_mock:
            granted, reason = self.evaluate_mock(req)
            node._trace("raft.mock_vote", candidate=req.candidate, granted=granted, reason=reason)
        else:
            granted, reason = self.evaluate(req)
            if granted and not req.is_pre_vote:
                # A granted real vote is remembered durably (voting
                # history): this candidate might win without this voter
                # ever hearing the outcome, so until newer leader
                # knowledge arrives, every later election this voter
                # participates in must intersect the candidate's region.
                # Grants are deliberately NOT treated as leader knowledge
                # itself — a failed candidacy must not displace the real
                # last-known leader.
                self.record_vote(req.term, req.candidate)
                self.refresh("vote-granted")
            node._trace(
                "raft.vote", candidate=req.candidate, granted=granted,
                pre=req.is_pre_vote, reason=reason,
            )
        self.send(src, RequestVoteResponse(
            term=node.current_term,
            voter=node.name,
            granted=granted,
            is_pre_vote=req.is_pre_vote,
            is_mock=req.is_mock,
            reason=reason,
            last_leader_term=self.last_known_leader_term,
            last_leader_region=self.last_known_leader_region,
            vote_history=self.vote_history,
        ))

    def evaluate(self, req: RequestVoteRequest) -> tuple[bool, str]:
        """The pre-vote and real-vote rule."""
        node = self.node
        if req.term < node.current_term:
            return False, "stale term"
        # Leader stickiness (dissertation §9.6 / kuduraft vote-withholding):
        # while we believe a leader is alive, refuse to destabilize it —
        # *without* adopting the candidate's term — unless this is a
        # sanctioned TransferLeadership election.
        # A leader is its own leader contact: it does not vote itself out.
        heard_recently = node.is_leader or (
            self.now() - self.last_leader_contact < self._config.election_timeout_base()
        )
        believes_in_other_leader = node.is_leader or (
            node.leader_id is not None and node.leader_id != req.candidate
        )
        if heard_recently and believes_in_other_leader and not req.is_leadership_transfer:
            return False, "leader alive"
        if not req.is_pre_vote and req.term > node.current_term:
            node._step_down(req.term, leader=None)
        if not req.is_pre_vote:
            already = self.voted_for(req.term)
            if already is not None and already != req.candidate:
                return False, f"voted for {already}"
        if req.last_opid < node.last_opid:
            return False, "log behind"
        return True, "ok"

    def evaluate_mock(self, req: RequestVoteRequest) -> tuple[bool, str]:
        """The mock-election rule (§4.3): deny when *we* lag the cursor
        and share the candidate's region — lagging in-region members
        would stall the new leader's commit quorum. No stickiness, no log
        check: the round only predicts the election TimeoutNow starts."""
        node = self.node
        candidate_member = node.membership.member(req.candidate)
        if req.term <= node.current_term:
            return False, "stale term"
        if candidate_member is None:
            return False, "unknown candidate"
        self_member = node.membership.member(node.name)
        same_region = self_member is not None and self_member.region == candidate_member.region
        # "Lagging" means unhealthy, not merely trailing the cursor by
        # in-flight replication: silent beyond the failure-detection
        # window, or behind by a pathological number of entries.
        stale_contact = (
            self.now() - self.last_leader_contact > self._config.election_timeout_base()
        )
        last = node.last_opid
        behind = req.cursor is not None and last < req.cursor
        far_behind = (
            req.cursor is not None
            and req.cursor.index - last.index > MOCK_ELECTION_MAX_LAG_ENTRIES
        )
        if same_region and behind and (stale_contact or far_behind):
            return False, "lagging in candidate region"
        return True, "ok"

    def on_retraction(self, msg: VoteRetraction) -> None:
        node = self.node
        dropped = self.drop_vote(msg.term, msg.candidate)
        if dropped and msg.term == node.current_term and node.leader_id is None:
            # The grant restarted the detector for a leader that never was.
            self.reset_timer(detect=False)
