// A/B test with sticky sessions and a statistically evaluated winner.
//
// Two implementations of a checkout endpoint convert at different rates.
// A Bifrost proxy splits traffic 50/50 with sticky cookie sessions (the
// same client always hits the same variant); after the experiment window,
// the two conversion rates are compared with Welch's t-test and the winner
// is rolled out.
//
//	go run ./examples/abtest
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"sync/atomic"
	"time"

	"bifrost"
	"bifrost/internal/httpx"
	"bifrost/internal/stats"
)

type variant struct {
	name       string
	conversion float64
	trials     atomic.Int64
	successes  atomic.Int64
	srv        *httpx.Server
}

func newVariant(name string, conversion float64, seed int64) (*variant, error) {
	v := &variant{name: name, conversion: conversion}
	rng := rand.New(rand.NewSource(seed))
	srv, err := httpx.NewServer("127.0.0.1:0", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			v.trials.Add(1)
			if rng.Float64() < v.conversion {
				v.successes.Add(1)
				fmt.Fprintln(w, "purchase complete")
				return
			}
			fmt.Fprintln(w, "cart abandoned")
		}))
	if err != nil {
		return nil, err
	}
	srv.Start()
	v.srv = srv
	return v, nil
}

// arm returns the variant's trials with the mean and unbiased variance of
// its conversions (stats.Welch rejects an arm of fewer than two trials).
func (v *variant) arm() (n int, mean, variance float64) {
	n = int(v.trials.Load())
	mean = float64(v.successes.Load()) / float64(n)
	return n, mean, mean * (1 - mean) * float64(n) / float64(n-1)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	a, err := newVariant("checkoutA", 0.18, 1)
	if err != nil {
		return err
	}
	b, err := newVariant("checkoutB", 0.11, 2)
	if err != nil {
		return err
	}
	defer a.srv.Shutdown(context.Background())
	defer b.srv.Shutdown(context.Background())

	yaml := fmt.Sprintf(`
name: checkout-abtest
deployment:
  services:
    - service: checkout
      versions:
        - name: checkoutA
          endpoint: %s
        - name: checkoutB
          endpoint: %s
strategy:
  phases:
    - phase: experiment
      description: sticky 50/50 split
      duration: 4s
      routes:
        - route:
            service: checkout
            weights: {checkoutA: 50, checkoutB: 50}
            sticky: true
      on:
        success: hold
    - phase: hold
      routes:
        - route:
            service: checkout
            weights: {checkoutA: 50, checkoutB: 50}
            sticky: true
`, a.srv.URL(), b.srv.URL())

	strategy, err := bifrost.CompileStrategy(yaml)
	if err != nil {
		return err
	}
	proxy, err := bifrost.NewProxy("checkout", bifrost.ProxyConfig{})
	if err != nil {
		return err
	}
	defer proxy.Close()
	front, err := httpx.NewServer("127.0.0.1:0", proxy)
	if err != nil {
		return err
	}
	front.Start()
	defer front.Shutdown(context.Background())

	local := bifrost.NewLocalProxies()
	local.Register("checkout", proxy)
	eng := bifrost.NewEngine(bifrost.WithLocalProxies(local))
	defer eng.Shutdown()

	enacted, err := eng.Enact(strategy)
	if err != nil {
		return err
	}

	// Simulate 300 users, each with a cookie jar (sticky sessions) and a
	// handful of checkout attempts.
	for u := 0; u < 300; u++ {
		jar, jerr := cookiejar.New(nil)
		if jerr != nil {
			return jerr
		}
		client := &http.Client{Jar: jar, Timeout: 5 * time.Second}
		served := ""
		for i := 0; i < 4; i++ {
			resp, rerr := client.Get(front.URL() + "/checkout")
			if rerr != nil {
				continue
			}
			version := resp.Header.Get("X-Bifrost-Version")
			resp.Body.Close()
			if served == "" {
				served = version
			} else if served != version {
				return fmt.Errorf("sticky session violated: %s then %s", served, version)
			}
		}
	}

	// Each arm is a Bernoulli sample: n trials with mean p and unbiased
	// variance p(1−p)·n/(n−1).
	na, pa, va := a.arm()
	nb, pb, vb := b.arm()
	tt, err := stats.Welch(na, pa, va, nb, pb, vb)
	if err != nil {
		return err
	}
	fmt.Printf("A: %d/%d conversions   B: %d/%d conversions\n",
		a.successes.Load(), a.trials.Load(), b.successes.Load(), b.trials.Load())
	// Welch's P is one-sided for "A converts better"; the two-sided test
	// at α = 0.05 splits α between the two directions.
	const alpha = 0.05
	winner, winnerURL := "", ""
	switch {
	case tt.P < alpha/2:
		winner, winnerURL = "checkoutA", a.srv.URL()
	case 1-tt.P < alpha/2:
		winner, winnerURL = "checkoutB", b.srv.URL()
	}
	fmt.Printf("welch: t=%.2f df=%.0f p(A>B)=%.4f\n", tt.T, tt.DF, tt.P)
	if winner == "" {
		fmt.Println("no significant difference: keeping the 50/50 split")
		return eng.Abort(strategy.Name)
	}
	_ = enacted.Strategy() // the strategy object remains inspectable
	fmt.Printf("rolling out %s to 100%%\n", winner)
	if err := eng.Abort(strategy.Name); err != nil {
		return err
	}
	return proxy.SetConfig(bifrost.ProxyConfig{
		Service: "checkout", Generation: 1 << 30,
		Backends: []bifrost.Backend{
			{Version: winner, URL: winnerURL, Weight: 1},
		},
	})
}
