package app

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
)

// systems boots both replicated designs as loopback clusters of real
// replica servers for cross-design tests.
func systems(t *testing.T, replicas int) map[string]struct {
	sys    repl.System
	loader repl.Loader
} {
	t.Helper()
	out := make(map[string]struct {
		sys    repl.System
		loader repl.Loader
	})
	for name, tmpl := range map[string]server.Options{
		"multi-master":  {Design: "mm", EagerCert: true},
		"single-master": {Design: "sm"},
	} {
		c, err := launch.Start(1, replicas, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		out[name] = struct {
			sys    repl.System
			loader repl.Loader
		}{c.Clients[0], c.Clients[0]}
	}
	return out
}

func TestRecordCodec(t *testing.T) {
	r := Record{"stock": 10, "price": 599, "sold": 0}
	enc := r.Encode()
	back, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back["stock"] != 10 || back["price"] != 599 {
		t.Fatalf("round trip = %v", back)
	}
	// Deterministic encoding (sorted keys).
	if enc != "price=599;sold=0;stock=10" {
		t.Fatalf("encoding = %q", enc)
	}
	if _, err := DecodeRecord("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeRecord("=1"); err == nil {
		t.Fatal("empty key accepted")
	}
	if empty, err := DecodeRecord(""); err != nil || len(empty) != 0 {
		t.Fatalf("empty decode: %v %v", empty, err)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(a, b, c int64) bool {
		r := Record{"a": a, "bb": b, "ccc": c}
		back, err := DecodeRecord(r.Encode())
		if err != nil {
			return false
		}
		return back["a"] == a && back["bb"] == b && back["ccc"] == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTPCWBasicFlow(t *testing.T) {
	for name, s := range systems(t, 3) {
		t.Run(name, func(t *testing.T) {
			shop, err := NewTPCW(s.sys, s.loader, 50)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := shop.ProductDetail(7)
			if err != nil || rec["stock"] != tpcwStockPerItem {
				t.Fatalf("detail: %v %v", rec, err)
			}
			if err := shop.AddToCart(1, 7, 3); err != nil {
				t.Fatal(err)
			}
			orderID, err := shop.BuyConfirm(1)
			if err != nil || orderID == 0 {
				t.Fatalf("buy: %v %v", orderID, err)
			}
			rec, _ = shop.ProductDetail(7)
			if rec["stock"] != tpcwStockPerItem-3 || rec["sold"] != 3 {
				t.Fatalf("stock after buy: %v", rec)
			}
			inv, err := shop.CheckInvariants(0)
			if err != nil {
				t.Fatal(err)
			}
			if inv.Orders != 1 || inv.UnitsSold != 3 {
				t.Fatalf("audit: %+v", inv)
			}
		})
	}
}

func TestTPCWBuyEmptyCartFails(t *testing.T) {
	s := systems(t, 2)["multi-master"]
	shop, err := NewTPCW(s.sys, s.loader, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shop.BuyConfirm(99); err == nil {
		t.Fatal("empty cart purchase succeeded")
	}
}

func TestTPCWOutOfStock(t *testing.T) {
	s := systems(t, 2)["single-master"]
	shop, err := NewTPCW(s.sys, s.loader, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Drain item 0 completely, then one more purchase must fail.
	if err := shop.AddToCart(1, 0, tpcwStockPerItem); err != nil {
		t.Fatal(err)
	}
	if _, err := shop.BuyConfirm(1); err != nil {
		t.Fatal(err)
	}
	if err := shop.AddToCart(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := shop.BuyConfirm(1); !errors.Is(err, ErrOutOfStock) {
		t.Fatalf("overselling allowed: %v", err)
	}
	if _, err := shop.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestTPCWConcurrentConservation(t *testing.T) {
	// The flagship integrity test: concurrent buyers hammer a small
	// catalog on both designs; goods and money conservation must hold
	// exactly on every replica.
	for name, s := range systems(t, 3) {
		t.Run(name, func(t *testing.T) {
			shop, err := NewTPCW(s.sys, s.loader, 8)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := shop.RunMixed(8, 15, 42)
			if err != nil {
				t.Fatal(err)
			}
			if inv.Orders == 0 || inv.UnitsSold == 0 {
				t.Fatalf("no purchases happened: %+v", inv)
			}
		})
	}
}

func TestRUBiSBasicFlow(t *testing.T) {
	for name, s := range systems(t, 3) {
		t.Run(name, func(t *testing.T) {
			site, err := NewRUBiS(s.sys, s.loader, 20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := site.PlaceBid(3, 1, 500); err != nil {
				t.Fatal(err)
			}
			if _, err := site.PlaceBid(3, 2, 600); err != nil {
				t.Fatal(err)
			}
			// A lower bid is rejected.
			if _, err := site.PlaceBid(3, 1, 550); !errors.Is(err, ErrBidTooLow) {
				t.Fatalf("low bid accepted: %v", err)
			}
			rec, err := site.ViewItem(3)
			if err != nil || rec["maxbid"] != 600 || rec["bids"] != 2 {
				t.Fatalf("item after bids: %v %v", rec, err)
			}
			if err := site.StoreComment(5, 2); err != nil {
				t.Fatal(err)
			}
			inv, err := site.CheckInvariants(0)
			if err != nil {
				t.Fatal(err)
			}
			if inv.Bids != 2 || inv.Comments != 1 || inv.Ratings != 2 {
				t.Fatalf("audit: %+v", inv)
			}
		})
	}
}

func TestRUBiSConcurrentAuctionConsistency(t *testing.T) {
	for name, s := range systems(t, 3) {
		t.Run(name, func(t *testing.T) {
			site, err := NewRUBiS(s.sys, s.loader, 5, 6)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := site.RunMixed(6, 20, 17)
			if err != nil {
				t.Fatal(err)
			}
			if inv.Bids == 0 {
				t.Fatalf("no bids landed: %+v", inv)
			}
		})
	}
}

func TestRUBiSBuyNowNeverOversells(t *testing.T) {
	s := systems(t, 2)["multi-master"]
	site, err := NewRUBiS(s.sys, s.loader, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 clients each try to buy 5 units of a 10-unit item: exactly 10
	// must succeed.
	done := make(chan int, 4)
	for c := 0; c < 4; c++ {
		go func() {
			bought := 0
			for i := 0; i < 5; i++ {
				err := site.BuyNow(0, int64(i))
				if err == nil {
					bought++
				} else if !errors.Is(err, ErrOutOfStock) {
					t.Errorf("unexpected: %v", err)
				}
			}
			done <- bought
		}()
	}
	total := 0
	for c := 0; c < 4; c++ {
		total += <-done
	}
	if total != 10 {
		t.Fatalf("sold %d units of 10", total)
	}
	rec, err := site.ViewItem(0)
	if err != nil || rec["quantity"] != 0 {
		t.Fatalf("final quantity: %v %v", rec, err)
	}
	if _, err := site.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	s := systems(t, 1)["multi-master"]
	if _, err := NewTPCW(s.sys, s.loader, 0); err == nil {
		t.Fatal("zero items accepted")
	}
	if _, err := NewRUBiS(s.sys, s.loader, 0, 5); err == nil {
		t.Fatal("zero items accepted")
	}
}
