package app

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/repl"
	"repro/internal/stats"
)

// RUBiS drives the auction application against a replicated system.
type RUBiS struct {
	sys   repl.System
	items int
	users int

	nextBid     atomic.Int64
	nextComment atomic.Int64
}

// RUBiS application tables.
const (
	rubisItems    = "items"
	rubisUsers    = "users"
	rubisBids     = "bids"
	rubisComments = "comments"
)

// NewRUBiS creates the schema and loads items (each with a reserve
// price and zero bids) and users (zero rating).
func NewRUBiS(sys repl.System, loader repl.Loader, items, users int) (*RUBiS, error) {
	if items <= 0 || users <= 0 {
		return nil, fmt.Errorf("app: rubis needs items and users")
	}
	for _, table := range []string{rubisItems, rubisUsers, rubisBids, rubisComments} {
		if err := loader.CreateTable(table); err != nil {
			return nil, err
		}
	}
	if err := loader.Load(rubisItems, items, func(i int64) string {
		return Record{"reserve": 100 + i%900, "maxbid": 0, "bids": 0, "quantity": 10}.Encode()
	}); err != nil {
		return nil, err
	}
	if err := loader.Load(rubisUsers, users, func(i int64) string {
		return Record{"rating": 0, "comments": 0}.Encode()
	}); err != nil {
		return nil, err
	}
	return &RUBiS{sys: sys, items: items, users: users}, nil
}

// ViewItem reads one item (read-only interaction).
func (r *RUBiS) ViewItem(item int64) (Record, error) {
	tx, err := r.sys.BeginRead()
	if err != nil {
		return nil, err
	}
	rec, ok, err := readRecord(tx, rubisItems, item)
	if err != nil || !ok {
		tx.Abort()
		if err == nil {
			err = fmt.Errorf("app: item %d missing", item)
		}
		return nil, err
	}
	return rec, tx.Commit()
}

// ErrBidTooLow reports a bid at or below the item's current maximum.
var ErrBidTooLow = errors.New("app: bid below current maximum")

// PlaceBid records a bid: insert the bid row and raise the item's
// maxbid/bids counters in one transaction. Concurrent bids on the same
// item conflict on the item row, so first-committer-wins serializes
// them and the maxbid invariant (item.maxbid == max over bids) holds.
func (r *RUBiS) PlaceBid(item, user, amount int64) (bidID int64, err error) {
	err = update(r.sys, func(tx repl.Txn) error {
		rec, ok, err := readRecord(tx, rubisItems, item)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("app: item %d missing", item)
			}
			return err
		}
		if amount <= rec["maxbid"] {
			return ErrBidTooLow
		}
		rec["maxbid"] = amount
		rec["bids"]++
		if err := writeRecord(tx, rubisItems, item, rec); err != nil {
			return err
		}
		bidID = r.nextBid.Add(1)
		return writeRecord(tx, rubisBids, bidID,
			Record{"item": item, "user": user, "amount": amount})
	})
	return bidID, err
}

// BuyNow purchases one unit of the item, never driving quantity
// negative.
func (r *RUBiS) BuyNow(item, user int64) error {
	return update(r.sys, func(tx repl.Txn) error {
		rec, ok, err := readRecord(tx, rubisItems, item)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("app: item %d missing", item)
			}
			return err
		}
		if rec["quantity"] <= 0 {
			return ErrOutOfStock
		}
		rec["quantity"]--
		return writeRecord(tx, rubisItems, item, rec)
	})
}

// StoreComment records a comment about a user and adjusts the user's
// rating in one transaction (rating conservation: a user's rating is
// the sum of comment ratings about them).
func (r *RUBiS) StoreComment(about int64, rating int64) error {
	return update(r.sys, func(tx repl.Txn) error {
		rec, ok, err := readRecord(tx, rubisUsers, about)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("app: user %d missing", about)
			}
			return err
		}
		rec["rating"] += rating
		rec["comments"]++
		if err := writeRecord(tx, rubisUsers, about, rec); err != nil {
			return err
		}
		id := r.nextComment.Add(1)
		return writeRecord(tx, rubisComments, id,
			Record{"about": about, "rating": rating})
	})
}

// RUBiSInvariants summarizes an integrity audit of one replica.
type RUBiSInvariants struct {
	Items    int
	Bids     int
	Comments int
	MaxBids  int64 // sum over items of maxbid (fingerprint for convergence)
	Ratings  int64 // sum over users of rating
}

// CheckInvariants audits replica idx:
//
//  1. every item's maxbid equals the maximum amount among its bids
//     (zero when it has none) and its bids counter matches;
//  2. every user's rating equals the sum of comment ratings about
//     them, and the comment counters match;
//  3. item quantities are non-negative.
func (r *RUBiS) CheckInvariants(idx int) (RUBiSInvariants, error) {
	var inv RUBiSInvariants
	r.sys.Sync()

	items, err := r.sys.TableDump(idx, rubisItems)
	if err != nil {
		return inv, err
	}
	bids, err := r.sys.TableDump(idx, rubisBids)
	if err != nil {
		return inv, err
	}
	inv.Items, inv.Bids = len(items), len(bids)

	maxBid := map[int64]int64{}
	bidCount := map[int64]int64{}
	for id, v := range bids {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("bid %d: %w", id, err)
		}
		item := rec["item"]
		bidCount[item]++
		if rec["amount"] > maxBid[item] {
			maxBid[item] = rec["amount"]
		}
	}
	for id, v := range items {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("item %d: %w", id, err)
		}
		if rec["quantity"] < 0 {
			return inv, fmt.Errorf("item %d: negative quantity", id)
		}
		if rec["maxbid"] != maxBid[id] {
			return inv, fmt.Errorf("item %d: maxbid %d but bid records say %d",
				id, rec["maxbid"], maxBid[id])
		}
		if rec["bids"] != bidCount[id] {
			return inv, fmt.Errorf("item %d: bids counter %d but %d bid records",
				id, rec["bids"], bidCount[id])
		}
		inv.MaxBids += rec["maxbid"]
	}

	users, err := r.sys.TableDump(idx, rubisUsers)
	if err != nil {
		return inv, err
	}
	comments, err := r.sys.TableDump(idx, rubisComments)
	if err != nil {
		return inv, err
	}
	inv.Comments = len(comments)
	ratingSum := map[int64]int64{}
	commentCount := map[int64]int64{}
	for id, v := range comments {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("comment %d: %w", id, err)
		}
		ratingSum[rec["about"]] += rec["rating"]
		commentCount[rec["about"]]++
	}
	for id, v := range users {
		rec, err := DecodeRecord(v)
		if err != nil {
			return inv, fmt.Errorf("user %d: %w", id, err)
		}
		if rec["rating"] != ratingSum[id] {
			return inv, fmt.Errorf("user %d: rating %d but comments sum to %d",
				id, rec["rating"], ratingSum[id])
		}
		if rec["comments"] != commentCount[id] {
			return inv, fmt.Errorf("user %d: comment counter mismatch", id)
		}
		inv.Ratings += rec["rating"]
	}
	return inv, nil
}

// RunMixed drives concurrent bidders and audits all replicas,
// returning the replica-0 audit.
func (r *RUBiS) RunMixed(clients, cyclesPerClient int, seed uint64) (RUBiSInvariants, error) {
	root := stats.NewRand(seed)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		rng := root.Split()
		user := int64(c % r.users)
		go func() {
			for i := 0; i < cyclesPerClient; i++ {
				item := int64(rng.Intn(r.items))
				rec, err := r.ViewItem(item)
				if err != nil {
					errs <- err
					return
				}
				if _, err := r.PlaceBid(item, user, rec["maxbid"]+1+int64(rng.Intn(50))); err != nil &&
					!errors.Is(err, ErrBidTooLow) {
					errs <- err
					return
				}
				if rng.Bernoulli(0.3) {
					if err := r.BuyNow(item, user); err != nil && !errors.Is(err, ErrOutOfStock) {
						errs <- err
						return
					}
				}
				if rng.Bernoulli(0.3) {
					if err := r.StoreComment(int64(rng.Intn(r.users)), int64(rng.Intn(5))-2); err != nil {
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
			return RUBiSInvariants{}, err
		}
	}

	ref, err := r.CheckInvariants(0)
	if err != nil {
		return ref, err
	}
	for idx := 1; idx < r.sys.Replicas(); idx++ {
		got, err := r.CheckInvariants(idx)
		if err != nil {
			return ref, fmt.Errorf("replica %d: %w", idx, err)
		}
		if got != ref {
			return ref, fmt.Errorf("replica %d diverged: %+v vs %+v", idx, got, ref)
		}
	}
	return ref, nil
}
