package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Two processes coordinate on the virtual clock: the producer hands
// each value to the consumer waiting on a Cond.
func Example() {
	e := sim.NewEngine()
	ready := new(sim.Cond)

	e.Spawn("producer", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10 * sim.Millisecond)
			ready.Signal(i)
		}
	})
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			v := ready.Wait(p)
			fmt.Printf("got %v at %v\n", v, p.Now())
		}
	})

	end, err := e.Run(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("done at %v\n", end)
	// Output:
	// got 1 at 0.010000s
	// got 2 at 0.020000s
	// got 3 at 0.030000s
	// done at 0.030000s
}
