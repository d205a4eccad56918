package client

import "repro/internal/repl"

// Exported for the package's external tests.
const (
	DialBackoffMin = dialBackoffMin
	DialBackoffMax = dialBackoffMax
)

// Dials returns how many dials the pool of slot has attempted.
func (c *Client) Dials(slot int) int64 { return c.rep(slot).pool.dials.Load() }

// SlotOf returns the slot tx runs on.
func SlotOf(tx repl.Txn) int { return tx.(*Txn).idx }
