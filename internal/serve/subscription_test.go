package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	contextrank "repro"
)

// subTestServer is a server over the shared ten-program TV system.
func subTestServer(t *testing.T) *Server {
	t.Helper()
	return NewServer(newTestSystem(t), Options{})
}

func applyCtx(t *testing.T, srv *Server, user, concept string, prob float64) {
	t.Helper()
	if _, err := srv.SetSession(user, []Measurement{{Concept: concept, Prob: prob}}); err != nil {
		t.Fatal(err)
	}
}

// waitEvent blocks for the next pushed event; the evaluator is
// asynchronous, so tests wait with a generous timeout.
func waitEvent(t *testing.T, ch <-chan SubEvent) SubEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed while waiting for an event")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a subscription event")
	}
	panic("unreachable")
}

// expectQuiet asserts no event arrives within a short window (a state
// change that does not move this subscription's scores must stay silent).
func expectQuiet(t *testing.T, ch <-chan SubEvent) {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if ok {
			t.Fatalf("unexpected event %q (seq %d) on a quiet stream", ev.Type, ev.Seq)
		}
		t.Fatal("event channel closed on a quiet stream")
	case <-time.After(300 * time.Millisecond):
	}
}

// subScores flattens snapshot results into an id→score map.
func subScores(results []SubResult) map[string]float64 {
	m := make(map[string]float64, len(results))
	for _, r := range results {
		m[r.ID] = r.Score
	}
	return m
}

// wantScores is the fresh-rank baseline a snapshot (or a delta-patched
// snapshot) must match bit for bit.
func wantScores(t *testing.T, srv *Server, user string) map[string]float64 {
	t.Helper()
	res, _, err := srv.Rank(user, "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64, len(res))
	for _, r := range res {
		m[r.ID] = r.Score
	}
	return m
}

func sameScoreMaps(t *testing.T, got, want map[string]float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: missing %s", what, id)
		}
		if g != w {
			t.Fatalf("%s: %s = %v, want %v (must be bit-identical)", what, id, g, w)
		}
	}
}

// TestSubscriptionLifecycle drives the full push path: subscribe, attach,
// snapshot equals a fresh rank, a context change pushes a delta that
// patches the snapshot into the new fresh rank, an unrelated user's
// context change pushes nothing, unsubscribe closes the stream.
func TestSubscriptionLifecycle(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)

	info, err := srv.Subscribe("", SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, "sub-") {
		t.Fatalf("minted id %q, want sub- prefix", info.ID)
	}
	if got := srv.Subscriptions(); len(got) != 1 || got[0].ID != info.ID {
		t.Fatalf("Subscriptions() = %+v, want the one registration", got)
	}

	st, err := srv.SubscriptionStream(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Type != "snapshot" || snap.ID != info.ID {
		t.Fatalf("opening event = %+v, want a snapshot for %s", snap, info.ID)
	}
	scores := subScores(snap.Results)
	sameScoreMaps(t, scores, wantScores(t, srv, "peter"), "opening snapshot")

	// One consumer per stream: a second concurrent attach must be refused.
	if _, err := srv.SubscriptionStream(info.ID); !errors.Is(err, ErrSubscriptionBusy) {
		t.Fatalf("second attach: err = %v, want ErrSubscriptionBusy", err)
	}

	// A context flip moves g0-genre programs down and g1 up: the stream
	// must push a delta whose patch reproduces the fresh ranking.
	applyCtx(t, srv, "peter", "CtxB", 1)
	ev := waitEvent(t, st.Events())
	if ev.Type != "delta" {
		t.Fatalf("after context flip: event type %q, want delta", ev.Type)
	}
	if len(ev.Changes) == 0 {
		t.Fatal("delta after a context flip carries no changes")
	}
	if ev.Seq <= snap.Seq {
		t.Fatalf("delta seq %d did not advance past snapshot seq %d", ev.Seq, snap.Seq)
	}
	for _, ch := range ev.Changes {
		if prev, ok := scores[ch.ID]; ok {
			if ch.Prev == nil || *ch.Prev != prev {
				t.Fatalf("change for %s: prev = %v, want %v", ch.ID, ch.Prev, prev)
			}
		} else if ch.Prev != nil {
			t.Fatalf("change for new entrant %s carries prev %v", ch.ID, *ch.Prev)
		}
		scores[ch.ID] = ch.Score
	}
	for _, id := range ev.Removed {
		delete(scores, id)
	}
	sameScoreMaps(t, scores, wantScores(t, srv, "peter"), "delta-patched snapshot")

	// Another user's context apply re-keys the evaluator but must not
	// push an event at peter: his scores did not move.
	applyCtx(t, srv, "maria", "CtxB", 1)
	expectQuiet(t, st.Events())

	// Unsubscribe ends the stream.
	found, err := srv.Unsubscribe(info.ID)
	if err != nil || !found {
		t.Fatalf("Unsubscribe = (%v, %v), want (true, nil)", found, err)
	}
	select {
	case ev, ok := <-st.Events():
		if ok {
			t.Fatalf("event %q after unsubscribe, want closed channel", ev.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event channel not closed after unsubscribe")
	}
	if got := srv.Subscriptions(); len(got) != 0 {
		t.Fatalf("Subscriptions() = %+v after unsubscribe, want none", got)
	}
	// Removing an absent id stays a journaled no-op.
	if found, err := srv.Unsubscribe(info.ID); err != nil || found {
		t.Fatalf("second Unsubscribe = (%v, %v), want (false, nil)", found, err)
	}
}

// TestSubscriptionOtherUsersApplyIsSkipped: a subscription's scores are a
// function of its owner's state version, so user A's context applies must
// cost user B's subscriptions nothing — no evaluation, no plan refresh for
// the candidate-list one (which the rank cache does not cover), no event —
// while B's own apply costs exactly one evaluation and one delta per
// subscription. Evaluator passes merge, so pass counts are not
// deterministic; evaluation counts are.
func TestSubscriptionOtherUsersApplyIsSkipped(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)
	applyCtx(t, srv, "maria", "CtxA", 1)
	specs := map[string]RankItem{
		"target":     {Target: "TvProgram"},
		"candidates": {Candidates: []string{"tv00", "tv01", "tv02", "tv03"}},
	}
	streams := make(map[string]*SubStream, len(specs))
	for id, item := range specs {
		if _, err := srv.Subscribe(id, SubscriptionSpec{User: "peter", RankItem: item}); err != nil {
			t.Fatal(err)
		}
		st, err := srv.SubscriptionStream(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Snapshot().Type != "snapshot" {
			t.Fatalf("%s: opening event %+v, want a snapshot", id, st.Snapshot())
		}
		streams[id] = st
	}
	// peterApplies moves peter's scores and waits for the one delta each of
	// his streams owes — which is also the drain: once both arrived, every
	// evaluation the apply (and anything before it) causes has happened, and
	// whatever passes are still queued can only skip.
	peterApplies := func(concept string) {
		t.Helper()
		applyCtx(t, srv, "peter", concept, 1)
		for id, st := range streams {
			if ev := waitEvent(t, st.Events()); ev.Type != "delta" {
				t.Fatalf("%s: event %q after peter's apply, want a delta", id, ev.Type)
			}
		}
	}
	peterApplies("CtxB") // settles the subscribe-time evaluations
	base := srv.Stats()

	const n = 6
	for i := 0; i < n; i++ {
		applyCtx(t, srv, "maria", "CtxB", 0.3+0.1*float64(i))
	}
	// maria's applies poked the evaluator; wait until a pass has run over
	// peter's subscriptions and found nothing to do.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Subs.Skipped == base.Subs.Skipped; {
		if time.Now().After(deadline) {
			t.Fatal("no evaluator pass skipped peter's subscriptions after maria's applies")
		}
		time.Sleep(time.Millisecond)
	}
	peterApplies("CtxA")
	for id, st := range streams {
		select {
		case ev := <-st.Events():
			t.Fatalf("%s: second event %q (seq %d), want exactly one delta", id, ev.Type, ev.Seq)
		case <-time.After(200 * time.Millisecond):
		}
	}

	got := srv.Stats()
	if d := got.Subs.Evals - base.Subs.Evals; d != 2 {
		t.Errorf("%d evaluations across %d applies for maria and one for peter, want 2 (one per subscription, for peter's)", d, n)
	}
	if d := got.Plans.Refreshed - base.Plans.Refreshed; d > 1 {
		t.Errorf("%d plan refreshes, want at most 1 (peter's plan, once)", d)
	}
	sameScoreMaps(t, subScores(streams["target"].Resync().Results), wantScores(t, srv, "peter"), "target subscription after the run")
}

// TestSubscriptionValidation: the spec shares the rank request's
// validation rules.
func TestSubscriptionValidation(t *testing.T) {
	srv := subTestServer(t)
	bad := []SubscriptionSpec{
		{RankItem: RankItem{Target: "TvProgram"}}, // no user
		{User: "peter"}, // neither target nor candidates
		{User: "peter", RankItem: RankItem{Target: "TvProgram", Candidates: []string{"tv00"}}}, // both
		{User: "peter", RankItem: RankItem{Target: "TvProgram", TopK: -1}},                     // negative top_k
	}
	for i, spec := range bad {
		if _, err := srv.Subscribe("", spec); err == nil {
			t.Fatalf("bad spec %d (%+v) accepted", i, spec)
		}
	}
	if got := srv.Subscriptions(); len(got) != 0 {
		t.Fatalf("rejected specs left %d registrations", len(got))
	}
}

// TestSubscriptionCandidatesTopK: a candidate-list subscription with
// top_k keeps only the k best, and candidates that fall out of the set
// arrive as removals.
func TestSubscriptionCandidatesTopK(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)
	cands := []string{"tv00", "tv01", "tv02", "tv03"}
	info, err := srv.Subscribe("pick", SubscriptionSpec{User: "peter", RankItem: RankItem{Candidates: cands, TopK: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "pick" {
		t.Fatalf("id = %q, want the caller-chosen one", info.ID)
	}
	st, err := srv.SubscriptionStream("pick")
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if len(snap.Results) != 2 {
		t.Fatalf("top-2 snapshot has %d results: %+v", len(snap.Results), snap.Results)
	}
	batch, _, err := srv.RankBatch("peter", "", []RankItem{{Candidates: cands, TopK: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Fatal(batch[0].Err)
	}
	for i, r := range batch[0].Results {
		if snap.Results[i].ID != r.ID || snap.Results[i].Score != r.Score {
			t.Fatalf("snapshot[%d] = %+v, want %s=%v", i, snap.Results[i], r.ID, r.Score)
		}
	}
}

// TestSubscriptionReplace: re-subscribing an id atomically replaces the
// registration and ends the old stream (journal replay relies on this).
func TestSubscriptionReplace(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)
	if _, err := srv.Subscribe("s1", SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.SubscriptionStream("s1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Subscribe("s1", SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram", TopK: 3}}); err != nil {
		t.Fatal(err)
	}
	// The old stream must end...
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-st.Events():
			if !ok {
				goto replaced
			}
		case <-deadline:
			t.Fatal("old stream not closed by replacement")
		}
	}
replaced:
	// ...and the id now serves the new spec.
	subs := srv.Subscriptions()
	if len(subs) != 1 || subs[0].TopK != 3 {
		t.Fatalf("after replace: %+v, want one registration with top_k 3", subs)
	}
	st2, err := srv.SubscriptionStream("s1")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st2.Snapshot().Results); n != 3 {
		t.Fatalf("replacement snapshot has %d results, want top-3", n)
	}
}

// TestSubscriptionErrorAndRecovery: a standing rank that fails (target
// names vocabulary that does not exist) pushes one error event — not one
// per evaluation — stays registered, and recovers with a snapshot once
// the vocabulary appears.
func TestSubscriptionErrorAndRecovery(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)
	if _, err := srv.Subscribe("doomed", SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "Podcast"}}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.SubscriptionStream("doomed")
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Type != "error" || snap.Error == "" {
		t.Fatalf("opening event = %+v, want a standing error", snap)
	}
	// Re-keying the evaluator with the same failure must not re-push it.
	applyCtx(t, srv, "peter", "CtxA", 0.9)
	expectQuiet(t, st.Events())
	// Declaring the missing concept heals the subscription: the recovery
	// event is a full snapshot (the consumer has no baseline to patch).
	if _, err := srv.Declare([]string{"Podcast"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, st.Events())
	if ev.Type != "snapshot" {
		t.Fatalf("recovery event type %q, want snapshot", ev.Type)
	}
}

// TestSubscriptionLaggedResync: when the consumer falls further behind
// than the event buffer, deltas are dropped, the lagged flag trips, and
// Resync rebuilds a full snapshot equal to the current ranking.
func TestSubscriptionLaggedResync(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)
	if _, err := srv.Subscribe("slow", SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.SubscriptionStream("slow")
	if err != nil {
		t.Fatal(err)
	}
	srv.subs.mu.Lock()
	sub := srv.subs.subs["slow"]
	srv.subs.mu.Unlock()

	// Drive evaluations synchronously (in-package) with the attached
	// consumer not draining the channel: alternating context
	// probabilities move scores every time, so each evaluation wants to
	// push one delta, and the overflow past the buffer must trip the
	// lagged flag instead of blocking the evaluator.
	for i := 0; i < subEventBuffer+8; i++ {
		applyCtx(t, srv, "peter", "CtxA", 0.3+0.4*float64(i%2))
		srv.evalSub(sub)
	}
	if !st.TakeLagged() {
		t.Fatalf("consumer %d events behind, lagged flag not set", subEventBuffer+8)
	}
	if st.TakeLagged() {
		t.Fatal("TakeLagged did not clear the flag")
	}

	// The SSE handler's lag protocol: drop the stale queue, resync from
	// the last evaluated ranking.
	for {
		select {
		case <-st.Events():
			continue
		default:
		}
		break
	}
	resync := st.Resync()
	if resync.Type != "resync" {
		t.Fatalf("Resync type = %q", resync.Type)
	}
	sameScoreMaps(t, subScores(resync.Results), wantScores(t, srv, "peter"), "resync snapshot")

	stats := srv.Stats()
	if stats.Subs == nil || stats.Subs.Lagged == 0 {
		t.Fatalf("stats.Subs = %+v, want a nonzero lagged count", stats.Subs)
	}
}

// TestSubscriptionChurnRace hammers subscribe/attach/consume/unsubscribe
// from several goroutines while a mutator flips contexts. Run with -race
// in CI; correctness claim: no panic, no deadlock, registry drains to
// empty.
func TestSubscriptionChurnRace(t *testing.T) {
	srv := subTestServer(t)
	applyCtx(t, srv, "peter", "CtxA", 1)

	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := "CtxA"
			if i%2 == 1 {
				c = "CtxB"
			}
			if _, err := srv.SetSession("peter", []Measurement{{Concept: c, Prob: 1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const churners, rounds = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i)
				if _, err := srv.Subscribe(id, SubscriptionSpec{User: "peter", RankItem: RankItem{Target: "TvProgram", TopK: 3}}); err != nil {
					t.Error(err)
					return
				}
				st, err := srv.SubscriptionStream(id)
				if err != nil {
					t.Error(err)
					return
				}
				select { // consume at most one live event, then bail
				case <-st.Events():
				case <-time.After(5 * time.Millisecond):
				}
				st.Close()
				if _, err := srv.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mut.Wait()

	if got := srv.Subscriptions(); len(got) != 0 {
		t.Fatalf("%d subscriptions leaked after churn", len(got))
	}
	stats := srv.Stats()
	if stats.Subs == nil || stats.Subs.Evals == 0 {
		t.Fatalf("stats.Subs = %+v after churn, want evaluation counts", stats.Subs)
	}
}
