package unionfs

import (
	"fmt"
	"math/rand"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// sumSizes is Layer.Size from scratch: every file's size, added up.
func sumSizes(l *Layer) host.Bytes {
	var total host.Bytes
	for _, n := range l.files {
		total += n.size
	}
	return total
}

// Property: a layer's running Size stays the sum of its files over random
// AddFile calls, mount writes (new files, copy-ups and overwrites), Removes
// and Snapshots, the last sometimes remounted as a clone's template so later
// writes and removes act on a fresh upper above it. Every layer ever made is
// checked after every op.
func TestLayerSizeIsTheSumOfItsFiles(t *testing.T) {
	paths := []string{"/a", "/b", "/c", "/d/e", "/d/f", "/g"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(seed)
		h := newTestHost(e)
		lower := NewLayer("lower", true)
		for _, p := range paths[:3] {
			lower.AddFile(p, host.Bytes(1+rng.Intn(64))*host.KB, nil)
		}
		upper := NewLayer("upper", false)
		m, err := NewMount(h, "m", upper, lower)
		if err != nil {
			t.Fatal(err)
		}
		layers := []*Layer{lower, upper}
		e.Spawn("ops", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				path := paths[rng.Intn(len(paths))]
				size := host.Bytes(rng.Intn(64)) * host.KB
				var op string
				switch rng.Intn(5) {
				case 0:
					l := layers[rng.Intn(len(layers))]
					op = fmt.Sprintf("AddFile(%s) to %s", path, l.Name())
					l.AddFile(path, size, nil)
				case 1, 2:
					op = fmt.Sprintf("Write(%s)", path)
					if err := m.Write(p, path, size, nil, 1.0); err != nil {
						t.Error(err)
						return
					}
				case 3:
					op = fmt.Sprintf("Remove(%s)", path)
					_ = m.Remove(path) // a path nobody holds is an error, and changes nothing
				case 4:
					name := fmt.Sprintf("snap-%d", i)
					op = "Snapshot " + name
					snap := m.Upper().Snapshot(name)
					layers = append(layers, snap)
					if rng.Intn(2) == 0 {
						op += ", remounted as a clone's template"
						fresh := NewLayer(fmt.Sprintf("upper-%d", i), false)
						if m, err = cloneOf(m, fmt.Sprintf("clone-%d", i), fresh, snap); err != nil {
							t.Error(err)
							return
						}
						layers = append(layers, fresh)
					}
				}
				for _, l := range layers {
					if got, want := l.Size(), sumSizes(l); got != want {
						t.Errorf("seed %d, op %d (%s): layer %s says %d bytes, its files sum to %d", seed, i, op, l.Name(), got, want)
						return
					}
				}
			}
		})
		e.Run()
	}
}
