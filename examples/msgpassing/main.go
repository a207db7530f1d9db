// Message passing: deploy the full self-stabilizing stack onto the
// actor runtime — one goroutine and one bounded mailbox per processor,
// versioned state and request messages along the links, guards fired
// only on a provably fresh view — and watch it orient the network
// concurrently.
//
//	go run ./examples/msgpassing
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"netorient/internal/actor"
	"netorient/internal/core"
	"netorient/internal/graph"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g := graph.Torus(4, 4)
	fmt.Printf("network: %s, one goroutine per processor\n\n", g)

	// DFTNO over the self-stabilizing token circulation.
	tokenSub, err := token.NewCirculator(g, 0)
	if err != nil {
		return err
	}
	dftno, err := core.NewDFTNO(g, tokenSub, 0)
	if err != nil {
		return err
	}
	dftno.Randomize(rand.New(rand.NewSource(11)))
	rt, err := actor.New(dftno, actor.Config{Seed: 11})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		return fmt.Errorf("dftno: %w", err)
	}
	fmt.Printf("dftno stabilized concurrently: %d moves in %v\n", rt.Moves(), time.Since(start).Round(time.Millisecond))
	if err := dftno.Labeling().Validate(g); err != nil {
		return err
	}
	fmt.Printf("names: %v\n\n", dftno.Names())

	// STNO over the self-stabilizing BFS tree, same deployment.
	treeSub, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		return err
	}
	stno, err := core.NewSTNO(g, treeSub, 0)
	if err != nil {
		return err
	}
	stno.Randomize(rand.New(rand.NewSource(12)))
	rt, err = actor.New(stno, actor.Config{Seed: 12})
	if err != nil {
		return err
	}
	start = time.Now()
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		return fmt.Errorf("stno: %w", err)
	}
	fmt.Printf("stno stabilized concurrently: %d moves in %v\n", rt.Moves(), time.Since(start).Round(time.Millisecond))
	if err := stno.Labeling().Validate(g); err != nil {
		return err
	}
	fmt.Printf("names: %v\n", stno.Names())
	return nil
}
