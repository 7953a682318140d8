// Chain demonstrates snapshot-chain sessions: a nightly feed keeps
// re-applying the same systematic rewrite to a table (here: a price shift
// plus a status recoding) while records churn. A Session explains each
// consecutive pair incrementally — snapshot n against n+1 — reusing one
// shared dictionary pool and warm-starting every search with the previous
// run's explanation, so later runs confirm the recurring pattern in a
// couple of queue polls instead of re-discovering it.
//
// Run with: go run ./examples/chain
package main

import (
	"context"
	"fmt"
	"log"

	"affidavit"
)

func main() {
	schema, err := affidavit.NewSchema("sku", "price_cents", "status")
	if err != nil {
		log.Fatal(err)
	}
	// Build a 4-snapshot chain: every night prices rise by 250 cents and
	// the legacy "in_stock" coding is migrated to "AVAILABLE"; one SKU is
	// retired and one — still arriving with the legacy coding from the
	// upstream system — is introduced, so the same migration recurs nightly.
	snapshots := []*affidavit.Table{mustTable(schema, [][]string{
		{"sku-001", "1099", "in_stock"},
		{"sku-002", "2499", "in_stock"},
		{"sku-003", "999", "sold_out"},
		{"sku-004", "1899", "in_stock"},
		{"sku-005", "350", "sold_out"},
		{"sku-006", "780", "in_stock"},
	})}
	next := 7
	for night := 0; night < 3; night++ {
		prev := snapshots[len(snapshots)-1]
		var rows [][]string
		for i := 1; i < prev.Len(); i++ { // drop the oldest SKU
			r := prev.Record(i)
			status := r[2]
			if status == "in_stock" {
				status = "AVAILABLE"
			}
			rows = append(rows, []string{r[0], plus250(r[1]), status})
		}
		rows = append(rows, []string{fmt.Sprintf("sku-%03d", next), "1500", "in_stock"})
		next++
		snapshots = append(snapshots, mustTable(schema, rows))
	}

	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	session := ex.Session(snapshots[0])
	for i := 1; i < len(snapshots); i++ {
		res, err := session.ExplainNextContext(ctx, snapshots[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── night %d → %d ─────────────────────────────\n", i-1, i)
		fmt.Print(res.Report())
		fmt.Printf("search effort: %d polls (start level %d)\n\n",
			res.Stats.Polls, res.Stats.StartLevel)
	}
	attrs, values := session.PoolStats()
	fmt.Printf("shared pool after %d runs: %d attribute dicts, %d interned values\n",
		session.Runs(), attrs, values)
}

func plus250(cents string) string {
	var v int
	fmt.Sscanf(cents, "%d", &v)
	return fmt.Sprintf("%d", v+250)
}

func mustTable(schema *affidavit.Schema, rows [][]string) *affidavit.Table {
	recs := make([]affidavit.Record, len(rows))
	for i, r := range rows {
		recs[i] = affidavit.Record(r)
	}
	t, err := affidavit.NewTable(schema, recs)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
