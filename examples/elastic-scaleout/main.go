// Elastic scale-out demo: one multi-master replica server starts
// alone; a rising closed-loop TPC-W-profile load pushes the live
// profile through the MVA predictor and the controller grows the
// cluster — each new replica joins online with a snapshot transfer
// and writeset catch-up — then shrinks it back once the load stops.
//
//	go run ./examples/elastic-scaleout
package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/elastic"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	prim, err := server.New(server.Options{
		Design:   "mm",
		ID:       0,
		Listen:   "127.0.0.1:0",
		Replicas: 1,
	})
	check(err)
	prim.Start()
	defer prim.Close()
	fmt.Printf("primary serving on %s\n", prim.Addr())

	cl, err := client.New(client.Options{
		Servers:       []string{prim.Addr()},
		Design:        "mm",
		Watch:         true,
		WatchInterval: 50 * time.Millisecond,
	})
	check(err)
	defer cl.Close()
	check(cl.CreateTable("acct"))

	// The scaler spawns loopback replicas through the join protocol;
	// a production deployment would start them on fresh machines.
	scaler := elastic.NewLocalScaler(1, func() (elastic.Replica, error) {
		rep, err := server.New(server.Options{
			Design:  "mm",
			Listen:  "127.0.0.1:0",
			Join:    true,
			Primary: prim.Addr(),
		})
		if err != nil {
			return nil, err
		}
		rep.Start()
		fmt.Printf("  + replica joined on %s\n", rep.Addr())
		return rep, nil
	})
	defer scaler.Close()
	src := elastic.NewWireSource([]string{prim.Addr()}, 2*time.Second)
	defer src.Close()

	const think = 25 * time.Millisecond
	ctl, err := elastic.NewController(elastic.Config{
		Min: 1, Max: 3,
		Cooldown: 300 * time.Millisecond,
	}, scaler)
	check(err)
	// The window samples the cluster every 100ms and profiles it over
	// the standalone profile's service demands.
	win := elastic.NewWindow(src, workload.TPCWShopping(), think.Seconds(), false)
	stop := make(chan struct{})
	go win.Run(100*time.Millisecond, stop, ctl.Observe)
	defer close(stop)

	// Phase 1: rising update load from 16 closed-loop clients.
	fmt.Println("phase 1: 16 clients, controller sizing the cluster live")
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := int64(0); ; seq++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				row := int64(w)*1_000_000 + seq
				for {
					tx, err := cl.BeginUpdate()
					if err != nil {
						return
					}
					err = tx.Write("acct", row, fmt.Sprintf("w%d-%d", w, seq))
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					if !errors.Is(err, repl.ErrAborted) {
						return
					}
				}
				time.Sleep(think)
			}
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for scaler.Replicas() < 3 && time.Now().Before(deadline) {
		st := ctl.Status()
		fmt.Printf("  replicas=%d target=%d est-clients=%.1f predicted-util=%.2f\n",
			scaler.Replicas(), st.Target, st.Clients, st.Util)
		time.Sleep(500 * time.Millisecond)
	}
	fmt.Printf("cluster grew to %d replicas (state-transfer failures: %d)\n",
		scaler.Replicas(), scaler.Failures())

	close(stopLoad)
	wg.Wait()

	// Phase 2: load gone; idle windows shrink the cluster back.
	fmt.Println("phase 2: load stopped, controller draining replicas")
	deadline = time.Now().Add(30 * time.Second)
	for scaler.Replicas() > 1 && time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
	}
	st := ctl.Status()
	fmt.Printf("cluster back to %d replica(s); controller ops: %d up / %d down\n",
		scaler.Replicas(), st.Ups, st.Downs)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
