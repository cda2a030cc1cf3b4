"""Tests for write intents and idempotency keys."""

import pytest

from repro.errors import ProtocolError
from repro.storage import (
    IdempotencyTable,
    IntentStatus,
    IntentTable,
    KVStore,
)


@pytest.fixture
def store():
    return KVStore()


@pytest.fixture
def intents(store):
    return IntentTable(store)


@pytest.fixture
def idem(store):
    return IdempotencyTable(store)


class TestIntentLifecycle:
    def test_create_is_pending(self, intents):
        intent = intents.create("exec-1", "social.post", now=10.0)
        assert intent.status == IntentStatus.PENDING
        assert intents.get("exec-1").function_id == "social.post"

    def test_duplicate_create_rejected(self, intents):
        intents.create("exec-1", "f", now=0.0)
        with pytest.raises(ProtocolError):
            intents.create("exec-1", "f", now=1.0)

    def test_get_missing_returns_none(self, intents):
        assert intents.get("ghost") is None

    def test_complete_pending_succeeds_once(self, intents):
        intents.create("exec-1", "f", now=0.0)
        assert intents.try_complete("exec-1") is True
        assert intents.get("exec-1").status == IntentStatus.COMPLETED

    def test_second_completion_loses_race(self, intents):
        # The followup handler and the re-execution timer both try to
        # complete; exactly one may apply the writes (§3.6 case 3).
        intents.create("exec-1", "f", now=0.0)
        assert intents.try_complete("exec-1") is True
        assert intents.try_complete("exec-1") is False

    def test_complete_missing_intent_fails(self, intents):
        assert intents.try_complete("ghost") is False

    def test_remove(self, intents):
        intents.create("exec-1", "f", now=0.0)
        assert intents.remove("exec-1") is True
        assert intents.get("exec-1") is None
        assert intents.remove("exec-1") is False

    def test_pending_sweep(self, intents):
        intents.create("a", "f", now=0.0)
        intents.create("b", "f", now=0.0)
        intents.try_complete("a")
        pending = intents.pending()
        assert [i.execution_id for i in pending] == ["b"]

    def test_intents_survive_in_primary_store(self, store, intents):
        # Durability comes from the primary store (§3.1): a "new" server
        # wrapping the same store sees the same intents.
        intents.create("exec-1", "f", now=0.0)
        recovered = IntentTable(store)
        assert recovered.get("exec-1").status == IntentStatus.PENDING


class TestIdempotency:
    def test_claim_each_site_once(self, idem):
        assert idem.claim("e1", IdempotencyTable.NEAR_USER) is True
        assert idem.claim("e1", IdempotencyTable.NEAR_USER) is False
        assert idem.claim("e1", IdempotencyTable.NEAR_STORAGE) is True
        assert idem.claim("e1", IdempotencyTable.NEAR_STORAGE) is False

    def test_at_most_twice_total(self, idem):
        claims = sum(
            idem.claim("e1", site)
            for site in (
                IdempotencyTable.NEAR_USER,
                IdempotencyTable.NEAR_STORAGE,
                IdempotencyTable.NEAR_USER,
                IdempotencyTable.NEAR_STORAGE,
            )
        )
        assert claims == 2

    def test_unknown_site_rejected(self, idem):
        with pytest.raises(ValueError):
            idem.claim("e1", "somewhere")

    def test_claimed_query(self, idem):
        assert not idem.claimed("e1", IdempotencyTable.NEAR_USER)
        idem.claim("e1", IdempotencyTable.NEAR_USER)
        assert idem.claimed("e1", IdempotencyTable.NEAR_USER)

    def test_executions_independent(self, idem):
        idem.claim("e1", IdempotencyTable.NEAR_USER)
        assert idem.claim("e2", IdempotencyTable.NEAR_USER) is True
