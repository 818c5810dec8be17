package main

import (
	"errors"
	"math"
	"net"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in is a few cores of a shared host,
// and the host's speed drifts: the same statements take 0.88 to 1.32
// times their usual time for a minute or two at a stretch, every
// timing at once, and no statistic inside a 30-second run removes a
// slow phase that outlasts it. So each repetition times a reference
// task beside the federation, in slices between the timed segments,
// and reports its timings at the reference's nominal speed: divided by
// the host factor, which is how much longer than nominal the reference
// took in that same window.
//
// The reference uses the standard library only and none of the
// repository's code, so no change to the federation moves it; it loads
// what the federation loads and the drift touches: memory latency (a
// pointer chase over 16 MiB), memory bandwidth (sweeps over 16 MiB), and
// loopback TCP round trips between two goroutines (system calls,
// wake-ups, both cores). An ALU loop was measured too and left out: in
// a phase that slowed edr-cached by 60% the chase took 55% longer, the
// sweeps 45%, the round trips 60 to 120%, and a register-only xorshift
// loop 14%. Its buffers are mapped outside the Go heap, so they do not
// move the collector's pacing under the federation.

const (
	refChaseBytes  = 16 << 20
	refStreamBytes = 16 << 20
	refChaseSteps  = 1 << 18
	refSweeps      = 10
	refRoundTrips  = 5000
)

// refNominalMS is what each component takes in a quiet phase of the
// 2-core sandbox this was written on, so that the host factor is about
// 1 there and reported timings are about the raw ones. Only ratios
// between runs matter: the constants are part of the benchmark and
// never change.
var refNominalMS = [refParts]float64{32.5, 18.0, 26.5}

const refParts = 3

var refPartNames = [refParts]string{"chase", "sweep", "loopback"}

// hostRef is the reference task, set up once per repetition.
type hostRef struct {
	chaseMem, streamMem []byte
	chase               []int32
	stream              []uint64
	ln                  net.Listener
	conn                net.Conn
	echoDone            chan struct{}
	sink                uint64
}

func newHostRef() (h *hostRef, err error) {
	h = &hostRef{echoDone: make(chan struct{})}
	defer func() {
		if err != nil {
			h.Close()
		}
	}()
	const prot, flags = syscall.PROT_READ | syscall.PROT_WRITE, syscall.MAP_ANON | syscall.MAP_PRIVATE
	if h.chaseMem, err = syscall.Mmap(-1, 0, refChaseBytes, prot, flags); err != nil {
		return h, err
	}
	if h.streamMem, err = syscall.Mmap(-1, 0, refStreamBytes, prot, flags); err != nil {
		return h, err
	}
	h.chase = unsafe.Slice((*int32)(unsafe.Pointer(&h.chaseMem[0])), refChaseBytes/4)
	h.stream = unsafe.Slice((*uint64)(unsafe.Pointer(&h.streamMem[0])), refStreamBytes/8)
	// One cycle through every slot: x -> 5x+12345 has full period
	// modulo a power of two, and its jumps defeat the prefetcher.
	n := int32(len(h.chase))
	for i, x := int32(0), int32(0); i < n; i++ {
		next := (x*5 + 12345) & (n - 1)
		h.chase[x] = next
		x = next
	}
	for i := range h.stream {
		h.stream[i] = uint64(i)
	}
	if h.ln, err = net.Listen("tcp", loopback); err != nil {
		close(h.echoDone)
		return h, err
	}
	go h.echo()
	if h.conn, err = net.Dial("tcp", h.ln.Addr().String()); err != nil {
		return h, err
	}
	return h, nil
}

// echo answers every 8 bytes with 8 bytes until the connection closes.
func (h *hostRef) echo() {
	defer close(h.echoDone)
	c, err := h.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, 8)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// Close ends the echo goroutine and unmaps the buffers.
func (h *hostRef) Close() {
	if h.conn != nil {
		h.conn.Close()
	}
	if h.ln != nil {
		h.ln.Close()
		<-h.echoDone
	}
	// A mapping that will not unmap goes with the process; nothing to do.
	if h.chaseMem != nil {
		_ = syscall.Munmap(h.chaseMem)
	}
	if h.streamMem != nil {
		_ = syscall.Munmap(h.streamMem)
	}
	h.chase, h.stream, h.chaseMem, h.streamMem = nil, nil, nil, nil
}

// refPass is the time of each component in one slice, in ms.
type refPass [refParts]float64

// pass runs the reference once, about a tenth of a second.
func (h *hostRef) pass() (p refPass, err error) {
	t := time.Now()
	j := int32(h.sink) & int32(len(h.chase)-1)
	for i := 0; i < refChaseSteps; i++ {
		j = h.chase[j]
	}
	p[0] = ms(time.Since(t))

	t = time.Now()
	var s uint64
	for k := 0; k < refSweeps; k++ {
		for i := range h.stream {
			s += h.stream[i]
			h.stream[i] = s
		}
	}
	p[1] = ms(time.Since(t))

	h.sink = uint64(j) + s&1 // keeps the loops alive

	t = time.Now()
	buf := make([]byte, 8)
	for i := 0; i < refRoundTrips; i++ {
		if _, err := h.conn.Write(buf); err != nil {
			return p, err
		}
		if _, err := h.conn.Read(buf); err != nil {
			return p, err
		}
	}
	p[2] = ms(time.Since(t))
	return p, nil
}

// hostFactor is how much longer than nominal the reference took over
// the passes of one window: per component the median pass (returned in
// parts) over its nominal time, and the geometric mean of the components.
func hostFactor(passes []refPass) (factor float64, parts refPass, err error) {
	if len(passes) == 0 {
		return 0, parts, errors.New("no reference pass")
	}
	logSum := 0.0
	col := make([]float64, len(passes))
	for part := range parts {
		for i, p := range passes {
			col[i] = p[part]
		}
		sort.Float64s(col)
		parts[part] = median(col)
		if !(parts[part] > 0) {
			return 0, parts, errors.New("reference component " + refPartNames[part] + " took no time")
		}
		logSum += math.Log(parts[part] / refNominalMS[part])
	}
	return math.Exp(logSum / refParts), parts, nil
}
