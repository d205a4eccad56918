package client

import (
	"strings"
	"testing"
)

// TestOptionsValidate pins every rule on Options: each bad row breaks
// exactly one rule of a valid base and must fail Validate (and New)
// with that rule's message; each good row must pass.
func TestOptionsValidate(t *testing.T) {
	mm := Options{Servers: []string{"a:1", "b:2"}, Design: "mm"}
	sm := Options{Servers: []string{"a:1"}, Design: "sm"}
	with := func(base Options, tweak func(*Options)) Options {
		tweak(&base)
		return base
	}

	good := map[string]Options{
		"mm":          mm,
		"sm":          sm,
		"mm watching": with(mm, func(o *Options) { o.Watch = true }),
		"tuned pool":  with(sm, func(o *Options) { o.PoolSize = 2 }),
		"watch on sm": with(sm, func(o *Options) { o.Watch = true }),
	}
	for name, o := range good {
		t.Run(name, func(t *testing.T) {
			if err := o.Validate(); err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
		})
	}

	bad := []struct {
		name string
		opts Options
		want string
	}{
		{"no servers", with(mm, func(o *Options) { o.Servers = nil }), "no servers"},
		{"no design", with(mm, func(o *Options) { o.Design = "" }), `unknown design ""`},
		{"unknown design", with(mm, func(o *Options) { o.Design = "nope" }), `unknown design "nope"`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
			cl, newErr := New(tc.opts)
			if newErr == nil {
				cl.Close()
				t.Fatal("New accepted options Validate refuses")
			}
			if newErr.Error() != err.Error() {
				t.Fatalf("New = %v, Validate = %v; want the same error", newErr, err)
			}
		})
	}
}
