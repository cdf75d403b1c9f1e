// Chessbot: the games scenario. A phone plays chess with the engine
// offloaded to the cloud, across all four network scenarios. The example
// prints, per scenario, the offloading decision the client framework makes,
// the response time, and the battery cost versus thinking locally —
// reproducing in miniature the trade-offs of Figure 10.
package main

import (
	"fmt"
	"log"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/netsim"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

const moves = 4

func main() {
	app, _ := workload.ByName(workload.NameChess)
	fmt.Printf("chessbot: %d engine moves per scenario, Rattrap cloud\n\n", moves)
	fmt.Printf("%-10s  %-9s  %-12s  %-10s  %-10s  %s\n",
		"network", "decision", "mean resp", "energy(J)", "local(J)", "last move")

	for _, profile := range netsim.Profiles() {
		e := sim.NewEngine(11)
		platform := core.New(e, core.DefaultConfig(core.KindRattrap))
		phone, err := device.New(e, "gamer-phone", profile)
		if err != nil {
			log.Fatal(err)
		}
		var (
			total     time.Duration
			offloads  int
			lastMove  string
			localOnly float64
		)
		e.Spawn("game", func(p *sim.Proc) {
			for i := 0; i < moves; i++ {
				// The framework decides per move whether the cloud is
				// worth it on this network.
				est, ph, res, err := phone.MaybeOffload(p, phone.NewTask(app), app.CodeSize(), platform)
				if err != nil {
					log.Fatal(err)
				}
				if est.ShouldOffload() {
					offloads++
					total += ph.Response()
				}
				lastMove = res.Output
				// What the same move would have cost on the handset.
				localOnly += est.LocalEnergyJ
			}
		})
		e.Run()

		decision := "offload"
		meanResp := "-"
		if offloads == 0 {
			decision = "local"
		} else {
			if offloads < moves {
				decision = "mixed"
			}
			meanResp = (total / time.Duration(offloads)).Round(time.Millisecond).String()
		}
		fmt.Printf("%-10s  %-9s  %-12s  %-10.2f  %-10.2f  %s\n",
			profile.Name, decision, meanResp, phone.Meter.Joules, localOnly, lastMove)
	}
	fmt.Println("\nWiFi: the engine move comes back ~5x faster than local search for")
	fmt.Println("a fraction of the battery; on 3G the framework keeps thinking local.")
}
