package serve_test

import (
	"fmt"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/shard"
)

// TestSubscriptionFollowsItsTargetsMembers: a standing subscription whose
// target mentions session vocabulary follows who is in it. carl holds
// InKitchen and bob subscribes to target=InKitchen; ada's apply of InKitchen
// moves neither the epoch nor bob's fingerprint — bob's version alone would
// skip — but the ranking the subscription last pushed stands on the target's
// membership handle, which c_InKitchen's write made stale, so the stream
// grows, and shrinks again when ada leaves. A candidate-list subscription
// beside it involves no handle and stays quiet throughout. Holds with the rank
// cache, without it, and on the owning shard of a sharded backend (sessions
// are shard-local, so the three users share one ShardIndex).
func TestSubscriptionFollowsItsTargetsMembers(t *testing.T) {
	// Three names of one shard at two shards.
	var users []string
	for i := 0; len(users) < 3; i++ {
		if u := fmt.Sprintf("user%02d", i); shard.ShardIndex(u, 2) == 0 {
			users = append(users, u)
		}
	}
	carl, bob, ada := users[0], users[1], users[2]

	for name, backend := range map[string]func() (serve.Backend, error){
		"cache": func() (serve.Backend, error) {
			return serve.NewServer(contextrank.NewSystem(), serve.Options{}), nil
		},
		"nocache": func() (serve.Backend, error) {
			return serve.NewServer(contextrank.NewSystem(), serve.Options{CacheSize: -1}), nil
		},
		"sharded": func() (serve.Backend, error) {
			return shard.New(2, func(int) (*contextrank.System, error) { return contextrank.NewSystem(), nil }, serve.Options{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			b, err := backend()
			if err != nil {
				t.Fatal(err)
			}
			enter := func(user string) {
				t.Helper()
				if _, err := b.SetSession(user, []serve.Measurement{{Concept: "InKitchen", Prob: 1}}); err != nil {
					t.Fatal(err)
				}
			}
			open := func(item serve.RankItem, want int) *serve.SubStream {
				t.Helper()
				info, err := b.Subscribe("", serve.SubscriptionSpec{User: bob, RankItem: item})
				if err != nil {
					t.Fatal(err)
				}
				st, err := b.SubscriptionStream(info.ID)
				if err != nil {
					t.Fatal(err)
				}
				if snap := st.Snapshot(); snap.Type != "snapshot" || len(snap.Results) != want {
					t.Fatalf("opening event %+v, want a snapshot of %d", snap, want)
				}
				return st
			}
			next := func(st *serve.SubStream) serve.SubEvent {
				t.Helper()
				select {
				case ev := <-st.Events():
					return ev
				case <-time.After(5 * time.Second):
					t.Fatalf("no event in 5 s (subscriptions: %+v)", *b.Stats().Subs)
				}
				panic("unreachable")
			}

			enter(carl)
			byTarget := open(serve.RankItem{Target: "InKitchen"}, 1)
			byList := open(serve.RankItem{Candidates: []string{carl, ada}}, 2)

			epoch, evals := b.Stats().Epoch, b.Stats().Subs.Evals
			enter(ada)
			if got := b.Stats().Epoch; got != epoch {
				t.Fatalf("ada's apply bumped the epoch %d -> %d: the version would have moved anyway", epoch, got)
			}
			if ev := next(byTarget); ev.Type != "delta" || len(ev.Changes) != 1 || ev.Changes[0].ID != ada || ev.Changes[0].Prev != nil || len(ev.Removed) != 0 {
				t.Fatalf("after ada entered: %+v, want a delta adding %s", ev, ada)
			}
			res, _, err := b.Rank(bob, "InKitchen", contextrank.RankOptions{})
			if err != nil || len(res) != 2 {
				t.Fatalf("fresh rank: %d results, err %v; want 2", len(res), err)
			}

			if err := b.DropSession(ada); err != nil {
				t.Fatal(err)
			}
			if ev := next(byTarget); ev.Type != "delta" || len(ev.Changes) != 0 || len(ev.Removed) != 1 || ev.Removed[0] != ada {
				t.Fatalf("after ada left: %+v, want a delta removing %s", ev, ada)
			}

			// Both of ada's writes passed the candidate-list subscription
			// over: no handle, and bob's version stood.
			select {
			case ev := <-byList.Events():
				t.Fatalf("candidate-list subscription pushed %+v across another user's applies", ev)
			case <-time.After(200 * time.Millisecond):
			}
			if got := b.Stats().Subs.Evals - evals; got != 2 {
				t.Fatalf("%d evaluations across ada's two writes, want the target subscription's two and none for the candidate list", got)
			}
		})
	}
}
