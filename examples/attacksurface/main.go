// Attack surface: the §4.1 deep-analysis features in isolation. A small
// service's source is symbolically executed (feasible paths and input-space
// model counts), its taint flows traced, and the network it deploys into is
// turned into an attack graph whose shortest exploit chain becomes the
// attack_graph_depth feature.
package main

import (
	"fmt"
	"log"

	"repro/internal/absint"
	"repro/internal/attackgraph"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/symexec"
)

const serviceSource = `
int handle_request(int reqlen) {
	int buf[64];
	int data = read_input();
	if (reqlen > 64) {
		reqlen = 64;
	}
	if (data > 100 && data < 200) {
		buf[0] = data;
		send(data);
		return 1;
	}
	if (data == 42) {
		system(data);
		return 2;
	}
	return 0;
}
`

func main() {
	_, prog, err := ir.Parse(serviceSource)
	if err != nil {
		log.Fatal(err)
	}
	fn := prog.Funcs[0]

	// Symbolic execution: enumerate feasible paths and count the input
	// assignments that trigger each one.
	fmt.Println("== Symbolic execution of handle_request ==")
	res := symexec.Explore(fn, symexec.DefaultLoopBound)
	fmt.Printf("feasible paths: %d (infeasible pruned: %d)\n",
		res.FeasiblePaths, res.InfeasiblePaths)
	fmt.Printf("input space: %.0f assignments; block coverage %d/%d\n",
		res.InputSpace, res.BlocksCovered, res.BlocksTotal)
	for i, p := range res.Paths {
		fmt.Printf("  path %d: %4.0f models, returns %s\n", i, p.Models, p.Return)
	}

	// Abstract interpretation: sound bounds over all paths, no budget.
	fmt.Println("\n== Abstract interpretation ==")
	ai := absint.Analyze(fn)
	fmt.Printf("return range over all inputs: %s\n", ai.ReturnRange)
	fmt.Printf("fixpoint in %d iterations; %d unreachable block(s)\n",
		ai.Iterations, len(ai.Unreachable))
	for _, w := range ai.Warnings {
		fmt.Printf("  line %d: %s\n", w.Line, w.Kind)
	}

	// Taint analysis: which attacker-controlled values reach sinks?
	fmt.Println("\n== Taint analysis ==")
	taint := dataflow.AnalyzeTaint(fn)
	for _, f := range taint.Findings {
		fmt.Printf("  line %d: tainted argument %d reaches sink %s\n", f.Line, f.Arg, f.Sink)
	}

	// Attack graph: the service in its deployment context.
	fmt.Println("\n== Attack graph for the deployment ==")
	n := attackgraph.NewNetwork(
		attackgraph.Host{Name: "internet"},
		attackgraph.Host{Name: "frontend", Services: []attackgraph.Service{{
			Name: "request-handler",
			Vulns: []attackgraph.Vuln{{
				ID: "CMD-INJ", RequiresPriv: attackgraph.PrivUser, GrantsPriv: attackgraph.PrivUser,
			}},
		}, {
			Name: "kernel",
			Vulns: []attackgraph.Vuln{{
				ID: "LPE", RequiresPriv: attackgraph.PrivUser, GrantsPriv: attackgraph.PrivRoot, Local: true,
			}},
		}}},
		attackgraph.Host{Name: "database", Services: []attackgraph.Service{{
			Name: "dbd",
			Vulns: []attackgraph.Vuln{{
				ID: "DB-RCE", RequiresPriv: attackgraph.PrivUser, GrantsPriv: attackgraph.PrivRoot,
			}},
		}}},
	)
	n.Connect("internet", "frontend")
	n.Connect("frontend", "database")
	analysis := attackgraph.Analyze(n,
		attackgraph.State{"internet": attackgraph.PrivRoot},
		"database", attackgraph.PrivRoot)
	fmt.Printf("goal (root on database) reachable: %v\n", analysis.GoalReachable)
	fmt.Printf("shortest exploit chain: %d steps, %d distinct minimal chains\n",
		analysis.MinSteps, analysis.Paths)
	fmt.Printf("attack states: %d, compromisable hosts: %d/3\n",
		analysis.States, analysis.CompromisableHosts)
	fmt.Println("\nfeature attack_graph_depth :=", analysis.MinSteps)
}
