package core

import (
	"fmt"
	"sort"

	"repro/internal/dl"
	"repro/internal/mapping"
	"repro/internal/prefs"
)

// GroupPolicy selects how per-member ideal-document probabilities combine
// into a group score (§6 "Modeling multiple users": "this could be
// naturally addressed with the model presented here").
type GroupPolicy string

// Group aggregation policies.
const (
	// PolicyConsensus multiplies member probabilities: the probability
	// that the document is ideal for *every* member simultaneously (under
	// member independence). Harsh but faithful to the model: one member's
	// zero vetoes the document.
	PolicyConsensus GroupPolicy = "consensus"
	// PolicyAverage takes the arithmetic mean — the utilitarian reading:
	// the probability that the document is ideal for a uniformly random
	// member.
	PolicyAverage GroupPolicy = "average"
	// PolicyLeastMisery takes the minimum — the classic group-
	// recommendation fairness policy: nobody is very unhappy.
	PolicyLeastMisery GroupPolicy = "least-misery"
)

// GroupRequest ranks the target's members for several situated users at
// once, each with their own preference rules.
type GroupRequest struct {
	Users     []string
	Target    *dl.Expr
	RulesFor  map[string][]prefs.Rule
	Policy    GroupPolicy // defaults to PolicyConsensus
	Threshold float64
	Limit     int
}

// GroupResult is one candidate with its group score and the per-member
// scores behind it.
type GroupResult struct {
	ID        string
	Score     float64
	PerMember map[string]float64
}

// GroupRank scores every member of the target for every user with a plan
// compiled from that user's rules and combines the scores under the
// request's policy. The target is resolved once for the whole group.
func GroupRank(l *mapping.Loader, req GroupRequest) ([]GroupResult, error) {
	if len(req.Users) == 0 {
		return nil, fmt.Errorf("core: group request without users")
	}
	if req.Target == nil {
		return nil, fmt.Errorf("core: group request without a target concept")
	}
	policy := req.Policy
	if policy == "" {
		policy = PolicyConsensus
	}
	candidates, err := resolveCandidates(l, req.Users[0], PlanRequest{Target: req.Target})
	if err != nil {
		return nil, err
	}
	perDoc := make(map[string]map[string]float64, len(candidates))
	sc := getScratch()
	defer putScratch(sc)
	for _, user := range req.Users {
		plan, err := CompilePlan(l, user, req.RulesFor[user], nil)
		if err != nil {
			return nil, fmt.Errorf("core: group member %s: %w", user, err)
		}
		for _, id := range candidates {
			score, err := plan.ScoreWith(sc, id)
			if err != nil {
				return nil, fmt.Errorf("core: group member %s: %w", user, err)
			}
			if perDoc[id] == nil {
				perDoc[id] = make(map[string]float64, len(req.Users))
			}
			perDoc[id][user] = score
		}
	}
	out := make([]GroupResult, 0, len(perDoc))
	for id, members := range perDoc {
		score, err := combineGroup(policy, req.Users, members)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupResult{ID: id, Score: score, PerMember: members})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if req.Threshold > 0 {
		kept := out[:0]
		for _, r := range out {
			if r.Score > req.Threshold {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out, nil
}

func combineGroup(policy GroupPolicy, users []string, members map[string]float64) (float64, error) {
	switch policy {
	case PolicyConsensus:
		p := 1.0
		for _, u := range users {
			p *= members[u]
		}
		return p, nil
	case PolicyAverage:
		sum := 0.0
		for _, u := range users {
			sum += members[u]
		}
		return sum / float64(len(users)), nil
	case PolicyLeastMisery:
		minScore := 1.0
		for _, u := range users {
			if members[u] < minScore {
				minScore = members[u]
			}
		}
		return minScore, nil
	}
	return 0, fmt.Errorf("core: unknown group policy %q", policy)
}
