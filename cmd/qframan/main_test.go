package main

import (
	"strings"
	"testing"

	"qframan/internal/core"
	"qframan/internal/fragment"
)

// TestFragFlagsRefuseGraphKnobsWithoutGraph: -frag-size and -frag-max tune
// only the graph engine, so without -partitioner graph they are an error
// naming the flag, never silently dropped.
func TestFragFlagsRefuseGraphKnobsWithoutGraph(t *testing.T) {
	for _, tc := range []struct {
		ff   fragFlags
		flag string
	}{
		{fragFlags{fragSize: 12}, "-frag-size"},
		{fragFlags{partitioner: "qf", fragSize: 12}, "-frag-size"},
		{fragFlags{fragMax: 30}, "-frag-max"},
		{fragFlags{partitioner: "qf", fragMax: 30}, "-frag-max"},
	} {
		cfg := core.DefaultConfig()
		err := tc.ff.apply(&cfg)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%+v: err %v, want one naming %s", tc.ff, err, tc.flag)
		}
	}
}

// TestFragFlagsResolvePartitioner: the empty name leaves the choice to
// core.Partition, and the graph knobs reach the graph engine.
func TestFragFlagsResolvePartitioner(t *testing.T) {
	cfg := core.DefaultConfig()
	if err := (fragFlags{}).apply(&cfg); err != nil || cfg.Partitioner != nil {
		t.Fatalf("default flags: partitioner %v, err %v; want nil, nil", cfg.Partitioner, err)
	}
	if err := (fragFlags{partitioner: "qf"}).apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Partitioner.(fragment.QFPartitioner); !ok {
		t.Fatalf("-partitioner qf resolved to %T", cfg.Partitioner)
	}
	if err := (fragFlags{partitioner: "graph", fragSize: 12, fragMax: 30}).apply(&cfg); err != nil {
		t.Fatal(err)
	}
	g, ok := cfg.Partitioner.(fragment.GraphPartitioner)
	if !ok || g.Opt.TargetAtoms != 12 || g.Opt.MaxAtoms != 30 {
		t.Fatalf("-partitioner graph -frag-size 12 -frag-max 30 resolved to %+v", cfg.Partitioner)
	}
	if err := (fragFlags{partitioner: "metis"}).apply(&cfg); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}
