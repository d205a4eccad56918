package app

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/repl"
	"repro/internal/stats"
)

// TPCW drives the bookstore application against a replicated system.
// All money amounts are cents; ids are dense integers.
type TPCW struct {
	sys   repl.System
	items int

	initialStock int64 // per item, fixed at load time

	nextOrder atomic.Int64
}

// TPC-W application tables.
const (
	tpcwItems      = "item"
	tpcwOrders     = "orders"
	tpcwOrderLines = "order_line"
	tpcwCarts      = "cart"
)

// tpcwStockPerItem is the initial stock quantity of every item.
const tpcwStockPerItem = 1000

// NewTPCW creates the schema on sys (via its Loader side) and loads
// items with deterministic stock and price. items is the catalog size
// (the standard scale is 10,000; tests shrink it).
func NewTPCW(sys repl.System, loader repl.Loader, items int) (*TPCW, error) {
	if items <= 0 {
		return nil, fmt.Errorf("app: %d items", items)
	}
	for _, table := range []string{tpcwItems, tpcwOrders, tpcwOrderLines, tpcwCarts} {
		if err := loader.CreateTable(table); err != nil {
			return nil, err
		}
	}
	err := loader.Load(tpcwItems, items, func(i int64) string {
		return Record{"stock": tpcwStockPerItem, "price": 500 + i%5000, "sold": 0}.Encode()
	})
	if err != nil {
		return nil, err
	}
	return &TPCW{sys: sys, items: items, initialStock: tpcwStockPerItem}, nil
}

// readRecord fetches and decodes one row inside tx.
func readRecord(tx repl.Txn, table string, row int64) (Record, bool, error) {
	v, ok, err := tx.Read(table, row)
	if err != nil || !ok {
		return nil, ok, err
	}
	r, err := DecodeRecord(v)
	return r, true, err
}

// writeRecord encodes and writes one row inside tx.
func writeRecord(tx repl.Txn, table string, row int64, r Record) error {
	return tx.Write(table, row, r.Encode())
}

// ProductDetail reads one item's attributes (read-only interaction).
func (t *TPCW) ProductDetail(item int64) (Record, error) {
	tx, err := t.sys.BeginRead()
	if err != nil {
		return nil, err
	}
	rec, ok, err := readRecord(tx, tpcwItems, item)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = fmt.Errorf("app: item %d missing", item)
		}
		return nil, err
	}
	return rec, tx.Commit()
}

// BestSellers scans a window of items and returns the id with the
// highest sold count (read-only interaction touching many rows).
func (t *TPCW) BestSellers(from, count int) (int64, error) {
	tx, err := t.sys.BeginRead()
	if err != nil {
		return 0, err
	}
	defer tx.Abort()
	best, bestSold := int64(-1), int64(-1)
	for i := 0; i < count; i++ {
		id := int64((from + i) % t.items)
		rec, ok, err := readRecord(tx, tpcwItems, id)
		if err != nil {
			return 0, err
		}
		if ok && rec["sold"] > bestSold {
			best, bestSold = id, rec["sold"]
		}
	}
	return best, tx.Commit()
}

// AddToCart replaces the cart's content with (item, qty). Carts are
// single-row documents keyed by cart id.
func (t *TPCW) AddToCart(cart, item int64, qty int64) error {
	if qty <= 0 {
		return fmt.Errorf("app: non-positive quantity %d", qty)
	}
	return update(t.sys, func(tx repl.Txn) error {
		return writeRecord(tx, tpcwCarts, cart, Record{"item": item, "qty": qty})
	})
}

// ErrOutOfStock reports a purchase that would drive stock negative;
// the transaction is rolled back.
var ErrOutOfStock = errors.New("app: out of stock")

// BuyConfirm turns a cart into an order: read the cart, decrement the
// item's stock (never below zero), record the sale, create the order
// and its order line, and empty the cart — all in one transaction, so
// under snapshot isolation the stock conservation invariant holds
// exactly despite concurrent buyers.
func (t *TPCW) BuyConfirm(cart int64) (orderID int64, err error) {
	err = update(t.sys, func(tx repl.Txn) error {
		cartRec, ok, err := readRecord(tx, tpcwCarts, cart)
		if err != nil {
			return err
		}
		if !ok || cartRec["qty"] == 0 {
			return fmt.Errorf("app: cart %d empty", cart)
		}
		item, qty := cartRec["item"], cartRec["qty"]
		itemRec, ok, err := readRecord(tx, tpcwItems, item)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("app: item %d missing", item)
			}
			return err
		}
		if itemRec["stock"] < qty {
			return ErrOutOfStock
		}
		itemRec["stock"] -= qty
		itemRec["sold"] += qty
		if err := writeRecord(tx, tpcwItems, item, itemRec); err != nil {
			return err
		}
		orderID = t.nextOrder.Add(1)
		total := qty * itemRec["price"]
		if err := writeRecord(tx, tpcwOrders, orderID, Record{"total": total, "lines": 1}); err != nil {
			return err
		}
		line := Record{"order": orderID, "item": item, "qty": qty, "amount": total}
		if err := writeRecord(tx, tpcwOrderLines, orderID, line); err != nil {
			return err
		}
		return tx.Delete(tpcwCarts, cart)
	})
	return orderID, err
}

// AdminUpdate changes an item's price (update interaction).
func (t *TPCW) AdminUpdate(item int64, price int64) error {
	return update(t.sys, func(tx repl.Txn) error {
		rec, ok, err := readRecord(tx, tpcwItems, item)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("app: item %d missing", item)
			}
			return err
		}
		rec["price"] = price
		return writeRecord(tx, tpcwItems, item, rec)
	})
}

// TPCWInvariants summarizes an integrity audit of one replica.
type TPCWInvariants struct {
	Items       int
	Orders      int
	UnitsSold   int64
	StockMoved  int64
	OrderTotal  int64
	LineAmounts int64
}

// CheckInvariants audits replica r's application state:
//
//  1. conservation of goods: initial stock minus remaining stock
//     equals recorded sold units equals units across order lines;
//  2. conservation of money: order totals equal the sum of their
//     lines' amounts;
//  3. no negative stock anywhere.
func (t *TPCW) CheckInvariants(replica int) (TPCWInvariants, error) {
	var inv TPCWInvariants
	t.sys.Sync()

	items, err := t.sys.TableDump(replica, tpcwItems)
	if err != nil {
		return inv, err
	}
	inv.Items = len(items)
	var remaining, sold int64
	for id, v := range items {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("item %d: %w", id, err)
		}
		if rec["stock"] < 0 {
			return inv, fmt.Errorf("item %d: negative stock %d", id, rec["stock"])
		}
		remaining += rec["stock"]
		sold += rec["sold"]
	}
	inv.UnitsSold = sold
	inv.StockMoved = int64(len(items))*t.initialStock - remaining

	orders, err := t.sys.TableDump(replica, tpcwOrders)
	if err != nil {
		return inv, err
	}
	lines, err := t.sys.TableDump(replica, tpcwOrderLines)
	if err != nil {
		return inv, err
	}
	inv.Orders = len(orders)
	var lineUnits int64
	for id, v := range orders {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("order %d: %w", id, err)
		}
		inv.OrderTotal += rec["total"]
		lv, ok := lines[id]
		if !ok {
			return inv, fmt.Errorf("order %d has no order line", id)
		}
		line, err := DecodeRecord(lv)
		if err != nil {
			return inv, fmt.Errorf("order line %d: %w", id, err)
		}
		inv.LineAmounts += line["amount"]
		lineUnits += line["qty"]
	}
	if len(lines) != len(orders) {
		return inv, fmt.Errorf("%d order lines for %d orders", len(lines), len(orders))
	}

	if inv.StockMoved != inv.UnitsSold {
		return inv, fmt.Errorf("goods conservation violated: stock moved %d, sold %d",
			inv.StockMoved, inv.UnitsSold)
	}
	if inv.UnitsSold != lineUnits {
		return inv, fmt.Errorf("goods conservation violated: sold %d, order-line units %d",
			inv.UnitsSold, lineUnits)
	}
	if inv.OrderTotal != inv.LineAmounts {
		return inv, fmt.Errorf("money conservation violated: orders %d, lines %d",
			inv.OrderTotal, inv.LineAmounts)
	}
	return inv, nil
}

// RunMixed drives clients concurrent shoppers, each performing cycles
// of browse / cart / buy / admin interactions, then audits every
// replica and checks cross-replica convergence. It returns the
// replica-0 audit.
func (t *TPCW) RunMixed(clients, cyclesPerClient int, seed uint64) (TPCWInvariants, error) {
	root := stats.NewRand(seed)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		rng := root.Split()
		cart := int64(c + 1)
		go func() {
			for i := 0; i < cyclesPerClient; i++ {
				item := int64(rng.Intn(t.items))
				if _, err := t.ProductDetail(item); err != nil {
					errs <- err
					return
				}
				if _, err := t.BestSellers(rng.Intn(t.items), 10); err != nil {
					errs <- err
					return
				}
				if err := t.AddToCart(cart, item, 1+int64(rng.Intn(3))); err != nil {
					errs <- err
					return
				}
				if _, err := t.BuyConfirm(cart); err != nil && !errors.Is(err, ErrOutOfStock) {
					errs <- err
					return
				}
				if rng.Bernoulli(0.2) {
					if err := t.AdminUpdate(item, 100+int64(rng.Intn(10000))); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return TPCWInvariants{}, err
		}
	}

	ref, err := t.CheckInvariants(0)
	if err != nil {
		return ref, err
	}
	for r := 1; r < t.sys.Replicas(); r++ {
		got, err := t.CheckInvariants(r)
		if err != nil {
			return ref, fmt.Errorf("replica %d: %w", r, err)
		}
		if got != ref {
			return ref, fmt.Errorf("replica %d diverged: %+v vs %+v", r, got, ref)
		}
	}
	return ref, nil
}
