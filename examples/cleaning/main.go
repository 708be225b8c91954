// Command cleaning demonstrates FD-driven error detection (the data
// cleaning application of Section I): dependencies that hold on almost
// every row — discovered with a small g₃ tolerance — flag the rows that
// break them as likely errors.
package main

import (
	"fmt"
	"log"

	"eulerfd"
)

// buildShipments plants a clean rule (Carrier determines ServiceTier) and
// then corrupts three rows, as a fat-fingered import would.
func buildShipments() (*eulerfd.Relation, []int, error) {
	carriers := []struct{ name, tier string }{
		{"northwind", "express"}, {"acme", "standard"},
		{"globex", "economy"}, {"initech", "standard"},
	}
	rows := make([][]string, 0, 500)
	for i := 0; i < 500; i++ {
		c := carriers[(i*13)%len(carriers)]
		rows = append(rows, []string{
			fmt.Sprintf("s%04d", i),
			c.name,
			c.tier,
			fmt.Sprintf("%d", 1+(i*7)%28), // transit days: noise
		})
	}
	dirty := []int{57, 233, 410}
	for _, i := range dirty {
		rows[i][2] = "overnight" // tier contradicts the carrier's rule
	}
	rel, err := eulerfd.NewRelation("shipments",
		[]string{"ShipmentID", "Carrier", "ServiceTier", "TransitDays"}, rows)
	return rel, dirty, err
}

func main() {
	rel, planted, err := buildShipments()
	if err != nil {
		log.Fatal(err)
	}

	// Exact discovery cannot see the rule: three dirty rows invalidate it.
	exact, err := eulerfd.Exact(rel)
	if err != nil {
		log.Fatal(err)
	}
	carrier, tier := rel.AttrIndex("Carrier"), rel.AttrIndex("ServiceTier")
	rule := eulerfd.NewFD([]int{carrier}, tier)
	fmt.Printf("exact discovery finds Carrier -> ServiceTier: %v\n", exact.Contains(rule))

	// Tolerant discovery (g₃ ≤ 1%) sees through the dirt: a positive
	// error budget with no top-k bound selects threshold mode.
	opt := eulerfd.DefaultOptions()
	opt.Epsilon = 0.01
	tolerant, err := eulerfd.DiscoverApprox(rel, eulerfd.MeasureG3, opt)
	if err != nil {
		log.Fatal(err)
	}
	found := false
	for _, sf := range tolerant.FDs {
		found = found || sf.FD == rule
	}
	fmt.Printf("tolerant discovery (1%%) finds it:        %v\n\n", found)
	if !found {
		log.Fatal("expected the planted rule to surface")
	}

	// Rows deviating from their carrier's majority tier are the suspects.
	majority := map[string]map[string]int{}
	for _, row := range rel.Rows {
		c, t := row[carrier], row[tier]
		if majority[c] == nil {
			majority[c] = map[string]int{}
		}
		majority[c][t]++
	}
	fmt.Println("rows violating Carrier -> ServiceTier:")
	flagged := 0
	for i, row := range rel.Rows {
		best, bestN := "", 0
		for t, n := range majority[row[carrier]] {
			if n > bestN {
				best, bestN = t, n
			}
		}
		if row[tier] != best {
			fmt.Printf("  row %d: %s ships %q but its rule says %q\n", i, row[carrier], row[tier], best)
			flagged++
		}
	}
	fmt.Printf("\nflagged %d rows (planted errors: %v)\n", flagged, planted)
}
