// Package attackgraph implements Sheyner-style automated attack-graph
// generation and analysis (§4.1: "we can estimate how difficult it is to
// attack a program by building an attack-graph"). A network of hosts with
// vulnerable services is searched forward from the attacker's foothold;
// the resulting state graph yields difficulty metrics (minimum exploit
// chain length, number of distinct attack states/paths) used as features.
package attackgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Priv is a privilege level on one host.
type Priv int

// Privilege levels, ordered.
const (
	PrivNone Priv = iota
	PrivUser
	PrivRoot
)

// String names the level.
func (p Priv) String() string {
	switch p {
	case PrivNone:
		return "none"
	case PrivUser:
		return "user"
	case PrivRoot:
		return "root"
	}
	return "?"
}

// Vuln is an exploitable weakness in a service.
type Vuln struct {
	ID string
	// RequiresPriv is the privilege the attacker needs on the *source* host.
	RequiresPriv Priv
	// GrantsPriv is the privilege gained on the *target* host.
	GrantsPriv Priv
	// Local restricts the exploit to attacks from the same host (privilege
	// escalation rather than remote compromise).
	Local bool
}

// Service is a network-facing (or local) program on a host.
type Service struct {
	Name  string
	Vulns []Vuln
}

// Host is one machine.
type Host struct {
	Name     string
	Services []Service
}

// Network is the attack-graph input model.
type Network struct {
	Hosts []Host
	// reach[src][dst] means src can open connections to dst.
	reach map[string]map[string]bool
}

// NewNetwork builds a network from hosts.
func NewNetwork(hosts ...Host) *Network {
	return &Network{Hosts: hosts, reach: map[string]map[string]bool{}}
}

// Connect makes dst reachable from src (directed).
func (n *Network) Connect(src, dst string) {
	if n.reach[src] == nil {
		n.reach[src] = map[string]bool{}
	}
	n.reach[src][dst] = true
}

// ConnectBidi connects both directions.
func (n *Network) ConnectBidi(a, b string) {
	n.Connect(a, b)
	n.Connect(b, a)
}

// Reachable reports whether src can reach dst.
func (n *Network) Reachable(src, dst string) bool {
	return n.reach[src][dst]
}

// State is an attacker state: privilege held on each host. It is encoded as
// a canonical string for hashing.
type State map[string]Priv

// key canonicalizes the state.
func (s State) key() string {
	names := make([]string, 0, len(s))
	for h := range s {
		names = append(names, h)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, h := range names {
		fmt.Fprintf(&sb, "%s=%d;", h, s[h])
	}
	return sb.String()
}

func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Exploit records one attack-graph edge.
type Exploit struct {
	Vuln    string
	Service string
	From    string // attacking host
	To      string // compromised host
	Gained  Priv
}

// Node is one attack-graph state node.
type Node struct {
	State State
	Depth int // minimum exploits from the initial state
	Edges []Edge
}

// Edge is an exploit transition.
type Edge struct {
	Exploit Exploit
	To      string // key of destination node
}

// Graph is the generated attack graph.
type Graph struct {
	Nodes   map[string]*Node
	Initial string
}

// Generate explores all attacker states reachable from the initial
// privileges via the network's vulnerabilities (monotonic: privileges only
// increase, so the state space is finite).
func Generate(n *Network, initial State) *Graph {
	g := &Graph{Nodes: map[string]*Node{}}
	start := initial.clone()
	// Ensure every host has an entry.
	for _, h := range n.Hosts {
		if _, ok := start[h.Name]; !ok {
			start[h.Name] = PrivNone
		}
	}
	g.Initial = start.key()
	g.Nodes[g.Initial] = &Node{State: start, Depth: 0}
	queue := []string{g.Initial}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		node := g.Nodes[key]
		for _, ex := range possibleExploits(n, node.State) {
			next := node.State.clone()
			next[ex.To] = ex.Gained
			nk := next.key()
			if _, seen := g.Nodes[nk]; !seen {
				g.Nodes[nk] = &Node{State: next, Depth: node.Depth + 1}
				queue = append(queue, nk)
			}
			node.Edges = append(node.Edges, Edge{Exploit: ex, To: nk})
		}
	}
	return g
}

// possibleExploits enumerates the exploits applicable in a state that gain
// new privilege, in deterministic order.
func possibleExploits(n *Network, s State) []Exploit {
	var out []Exploit
	for _, target := range n.Hosts {
		for _, svc := range target.Services {
			for _, v := range svc.Vulns {
				if s[target.Name] >= v.GrantsPriv {
					continue // nothing to gain
				}
				if v.Local {
					if s[target.Name] >= v.RequiresPriv && s[target.Name] > PrivNone {
						out = append(out, Exploit{
							Vuln: v.ID, Service: svc.Name,
							From: target.Name, To: target.Name, Gained: v.GrantsPriv,
						})
					}
					continue
				}
				for _, src := range n.Hosts {
					if s[src.Name] < v.RequiresPriv || s[src.Name] == PrivNone {
						continue
					}
					if src.Name != target.Name && !n.Reachable(src.Name, target.Name) {
						continue
					}
					out = append(out, Exploit{
						Vuln: v.ID, Service: svc.Name,
						From: src.Name, To: target.Name, Gained: v.GrantsPriv,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Vuln != b.Vuln {
			return a.Vuln < b.Vuln
		}
		return a.From < b.From
	})
	return out
}

// Analysis summarizes an attack graph against a goal.
type Analysis struct {
	GoalReachable bool
	// MinSteps is the length of the shortest exploit chain to the goal
	// (0 when the goal holds initially, -1 when unreachable).
	MinSteps int
	// Paths counts distinct minimal-length exploit chains to the goal.
	Paths int
	// States and Edges measure graph size (attack-surface breadth).
	States, Edges int
	// CompromisableHosts counts hosts where the attacker can gain >= user.
	CompromisableHosts int
}

// Analyze runs Generate and evaluates the goal "privilege >= goalPriv on
// goalHost".
func Analyze(n *Network, initial State, goalHost string, goalPriv Priv) Analysis {
	g := Generate(n, initial)
	a := Analysis{MinSteps: -1, States: len(g.Nodes)}
	compromised := map[string]bool{}
	for _, node := range g.Nodes {
		a.Edges += len(node.Edges)
		for h, p := range node.State {
			if p >= PrivUser {
				compromised[h] = true
			}
		}
		if node.State[goalHost] >= goalPriv {
			a.GoalReachable = true
			if a.MinSteps == -1 || node.Depth < a.MinSteps {
				a.MinSteps = node.Depth
			}
		}
	}
	a.CompromisableHosts = len(compromised)
	if a.GoalReachable {
		a.Paths = countMinPaths(g, goalHost, goalPriv, a.MinSteps)
	}
	return a
}

// countMinPaths counts the distinct exploit sequences of exactly minSteps
// edges from the initial state to any goal-satisfying state.
func countMinPaths(g *Graph, goalHost string, goalPriv Priv, minSteps int) int {
	type item struct {
		key   string
		depth int
	}
	// Dynamic programming over (node, depth): number of ways to reach.
	ways := map[item]int{{key: g.Initial, depth: 0}: 1}
	frontier := []item{{key: g.Initial, depth: 0}}
	total := 0
	for len(frontier) > 0 {
		it := frontier[0]
		frontier = frontier[1:]
		node := g.Nodes[it.key]
		if node.State[goalHost] >= goalPriv {
			if it.depth == minSteps {
				total += ways[it]
			}
			continue
		}
		if it.depth >= minSteps {
			continue
		}
		for _, e := range node.Edges {
			next := item{key: e.To, depth: it.depth + 1}
			if _, seen := ways[next]; !seen {
				frontier = append(frontier, next)
			}
			ways[next] += ways[it]
		}
	}
	return total
}
