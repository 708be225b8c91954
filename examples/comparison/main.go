// Command comparison races every discovery algorithm in the library on
// one synthetic dataset and prints a Table III-style row for each:
// runtime, FD count, and F1 score against the exact result.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"eulerfd"
)

// buildInventory generates a mid-size relation with planted structure:
// sku → (category, price); (warehouse, bin) → zone; plus noise columns.
func buildInventory(rows int) (*eulerfd.Relation, error) {
	r := rand.New(rand.NewSource(7))
	data := make([][]string, rows)
	for i := range data {
		sku := r.Intn(rows / 3)
		wh := r.Intn(12)
		bin := r.Intn(40)
		data[i] = []string{
			fmt.Sprintf("sku%d", sku),
			fmt.Sprintf("cat%d", sku%17),        // sku → category
			fmt.Sprintf("%d", 100+(sku*37)%900), // sku → price
			fmt.Sprintf("w%d", wh),
			fmt.Sprintf("b%d", bin),
			fmt.Sprintf("z%d", (wh*5+bin)%23),       // warehouse,bin → zone
			fmt.Sprintf("%d", r.Intn(500)),          // stock: noise
			[]string{"ok", "low", "out"}[r.Intn(3)], // status: noise
		}
	}
	return eulerfd.NewRelation("inventory",
		[]string{"sku", "category", "price", "warehouse", "bin", "zone", "stock", "status"},
		data)
}

func main() {
	rel, err := buildInventory(5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s (%d rows × %d cols)\n\n", rel.Name, rel.NumRows(), rel.NumCols())

	truth, err := eulerfd.Exact(rel)
	if err != nil {
		log.Fatal(err)
	}

	// Every discoverer is reachable through the registry by its AlgoID.
	algos := []struct {
		name string
		id   eulerfd.AlgoID
	}{
		{"TANE", eulerfd.AlgoTANE},
		{"Fdep", eulerfd.AlgoFdep},
		{"Fun", eulerfd.AlgoFun},
		{"Dfd", eulerfd.AlgoDfd},
		{"Dep-Miner", eulerfd.AlgoDepMiner},
		{"FastFDs", eulerfd.AlgoFastFDs},
		{"HyFD", eulerfd.AlgoHyFD},
		{"Kivinen", eulerfd.AlgoKivinen},
		{"AID-FD", eulerfd.AlgoAIDFD},
		{"EulerFD", eulerfd.AlgoEuler},
	}

	fmt.Printf("%-10s %12s %8s %8s\n", "algo", "time", "FDs", "F1")
	for _, a := range algos {
		start := time.Now()
		fds, err := eulerfd.DiscoverWith(context.Background(), a.id, rel)
		if err != nil {
			log.Fatalf("%s: %v", a.name, err)
		}
		elapsed := time.Since(start)
		acc := eulerfd.Evaluate(fds, truth)
		fmt.Printf("%-10s %12s %8d %8.3f\n", a.name, elapsed.Round(time.Millisecond), fds.Len(), acc.F1)
	}
}
