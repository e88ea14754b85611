package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"

	"repro/internal/store/query"
)

// Keyed is a request the shard router can place: ShardKey names the
// repository state the request touches, so every request about one
// repository converges on one backend. A request that names no repository
// cannot be placed, and ShardKey says why.
type Keyed interface {
	ShardKey() (string, error)
}

// Route is one analysis endpoint: its path and, through the type
// parameter, the request body it accepts. The daemon mounts its handlers on
// these routes and the shard router keys request bodies through them, so
// the two cannot disagree about what a path carries.
type Route[Req Keyed] struct{ Path string }

// The analysis endpoints.
var (
	ScoreRoute          = route[ScoreRequest]("/v1/score")
	AnalyzeRoute        = route[AnalyzeRequest]("/v1/analyze")
	AnalyzeStreamRoute  = route[AnalyzeRequest]("/v1/analyze/stream")
	FindingsRoute       = route[FindingsRequest]("/v1/findings")
	FindingsStreamRoute = route[FindingsRequest]("/v1/findings/stream")
	CompareRoute        = route[CompareRequest]("/v1/compare")
	DeltaRoute          = route[DeltaRequest]("/v1/delta")
	RankRoute           = route[RankRequest]("/v1/rank")
	QueryRoute          = route[QueryRequest]("/v1/query")
)

// shardKeys holds, by path, the body-keying function of every Route. It
// decodes the body with its files' contents elided (elideContent): a key
// never reads them, and decoding them was most of the router's own work.
var shardKeys = map[string]func(body []byte) (string, error){}

func route[Req Keyed](path string) Route[Req] {
	shardKeys[path] = func(body []byte) (string, error) {
		var req Req
		if err := json.Unmarshal(elideContent(body), &req); err != nil {
			return "", fmt.Errorf("decode request: %w", err)
		}
		return req.ShardKey()
	}
	return Route[Req]{Path: path}
}

// ShardKeys returns, for the path of every Route, a function that decodes
// a request body of that route and returns its shard key.
func ShardKeys() map[string]func(body []byte) (string, error) {
	return maps.Clone(shardKeys)
}

// Subject is the name a tree is analyzed, recorded, and routed under: its
// Name, or "tree" when the request left the name empty.
func (t Tree) Subject() string {
	if t.Name == "" {
		return "tree"
	}
	return t.Name
}

func treeKey(t Tree) (string, error) { return "tree:" + t.Subject(), nil }

// ShardKey implements Keyed: a tree belongs to the repository it names.
func (r ScoreRequest) ShardKey() (string, error) { return treeKey(r.Tree) }

// ShardKey implements Keyed: a tree belongs to the repository it names.
func (r AnalyzeRequest) ShardKey() (string, error) { return treeKey(r.Tree) }

// ShardKey implements Keyed: a tree belongs to the repository it names.
func (r FindingsRequest) ShardKey() (string, error) { return treeKey(r.Tree) }

// ShardKey implements Keyed: a tree belongs to the repository it names.
func (r RankRequest) ShardKey() (string, error) { return treeKey(r.Tree) }

// ShardKey implements Keyed: a comparison belongs to its new version, the
// gate's subject and the tree the daemon records.
func (r CompareRequest) ShardKey() (string, error) { return treeKey(r.New) }

// ShardKey implements Keyed: a changeset belongs to the backend holding its
// repository's session, which is shard-local.
func (r DeltaRequest) ShardKey() (string, error) {
	if r.RepoID == "" {
		return "", errors.New("repo_id is required")
	}
	return "repo:" + r.RepoID, nil
}

// ShardKey implements Keyed: a query belongs to the repository its filter
// pins (query.PinnedRepo), the rule the history planner narrows by too.
// History is shard-local, so a query without a pin cannot be answered
// whole by any single backend and is refused rather than answered
// partially.
func (r QueryRequest) ShardKey() (string, error) {
	q, err := query.Parse(r.Query)
	if err != nil {
		return "", err
	}
	if repo, ok := query.PinnedRepo(q.Where); ok {
		return "tree:" + repo, nil
	}
	return "", errors.New(`fleet query needs a repo = "..." filter to pick its shard (history is shard-local)`)
}
