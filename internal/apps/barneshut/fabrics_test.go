package barneshut

import (
	"fmt"
	"testing"

	"samsys/internal/core"
	"samsys/internal/fabric"
	"samsys/internal/fabric/netfab"
	"samsys/internal/fabric/shmfab"
	"samsys/internal/machine"
	"samsys/internal/octlib"
)

// TestRunOnWireFabrics runs SAM Barnes-Hut on the fabrics that encode
// every message — TCP netfab, netfab with shm lanes, and shmfab — so
// each shared cell and bounding box crosses the wire codec, and checks
// the bodies against the serial run. With blocking on, cells also carry
// their children's summaries.
func TestRunOnWireFabrics(t *testing.T) {
	const nodes = 3
	fabrics := []struct {
		name string
		shm  bool
		mk   func() (fabric.Fabric, error)
	}{
		{"net", false, func() (fabric.Fabric, error) { return netfab.NewLocal(machine.CM5, nodes) }},
		{"hybrid", true, func() (fabric.Fabric, error) {
			return netfab.NewLocal(machine.CM5, nodes, netfab.WithShm(netfab.ShmAuto))
		}},
		{"shm", true, func() (fabric.Fabric, error) { return shmfab.New(machine.CM5, nodes) }},
	}
	p := Params{Steps: 2, Theta: 0.8}
	bodies := octlib.RandomBodies(300, 21)
	serial := RunSerial(bodies, p)
	for _, fc := range fabrics {
		for _, blocking := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/blocking=%v", fc.name, blocking), func(t *testing.T) {
				if fc.shm && !shmfab.Available("") {
					t.Skip("shm lanes unavailable on this platform")
				}
				fab, err := fc.mk()
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(fab, core.Options{}, Config{Bodies: bodies, Params: p, Blocking: blocking})
				if err != nil {
					t.Fatal(err)
				}
				if e := maxPosError(serial.Bodies, res.Bodies); !(e <= 1e-9) {
					t.Errorf("positions diverge from serial by %g", e)
				}
			})
		}
	}
}
