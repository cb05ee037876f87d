// Command kairosd runs one emulated inference instance server: it binds a
// TCP port, announces its instance type and model, and serves one batched
// query at a time with the calibrated latency (Sec. 6's instance-side
// inference server).
//
// The ready line ("kairosd: TYPE serving MODEL on ADDR (timescale X)") is
// a contract with the autopilot's exec actuation provider: it is printed
// only once the listener is bound, and the provider parses it to learn
// the bound address of a `-addr 127.0.0.1:0` daemon and to check the
// announced type and model. On SIGTERM/SIGINT the daemon drains: it stops
// accepting connections, serves every fully-received in-flight query,
// flushes the replies, and only then exits — so a control plane stopping
// a kairosd never drops queries.
//
// Unlike the other commands, kairosd imports internal/server and
// internal/models directly rather than the kairos facade: a fleet start-up
// execs one kairosd per instance, and linking only the instance server
// keeps each start-up cheap.
//
// Usage:
//
//	kairosd -addr 127.0.0.1:7001 -type g4dn.xlarge -model RM2
//	kairosd -addr 127.0.0.1:7002 -type r5n.large  -model RM2 -timescale 0.1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kairos/internal/models"
	"kairos/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address (127.0.0.1:0 for an ephemeral port)")
	typeName := flag.String("type", "g4dn.xlarge", "instance type to emulate")
	modelName := flag.String("model", "RM2", "served model (see kairos-bench -run table3)")
	timeScale := flag.Float64("timescale", 1.0, "real seconds per simulated second (0.1 = 10x faster)")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight queries on SIGTERM")
	flag.Parse()

	model, err := models.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	s, err := server.NewInstanceServer(*typeName, model, *timeScale)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Start(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kairosd: %s serving %s on %s (timescale %.2f)\n", *typeName, model.Name, s.Addr(), *timeScale)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("kairosd: draining")
	if err := s.Shutdown(*drain); err != nil {
		log.Fatal(err)
	}
	fmt.Println("kairosd: shut down")
}
