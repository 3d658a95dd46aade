package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomd"
)

// daemon is one running cmd/atomd subprocess.
type daemon struct {
	cmd        *exec.Cmd
	httpAddr   string
	ingestAddr string
	queryAddr  string
	// boot is the time from exec to the first binary-port Epoch reply:
	// RIB decode, sanitize, index build and listeners.
	boot  time.Duration
	ready time.Time // when boot ended

	stderrDone chan struct{}
	stderr     bytes.Buffer // written only by the drain goroutine until stderrDone
}

// startDaemon execs atomd over the RIB files and waits until its binary
// query port answers Epoch. The daemon prints its bound addresses on
// stderr; the rest of stderr is kept for error reports.
func startDaemon(bin string, workers int, ribFiles []string) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-ingest", "127.0.0.1:0", "-query", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers)}
	cmd := exec.Command(bin, append(args, ribFiles...)...)
	cmd.Stdout = io.Discard
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start atomd: %w", err)
	}
	d := &daemon{cmd: cmd, stderrDone: make(chan struct{})}
	ready := make(chan [3]string, 1)
	go func() {
		defer close(d.stderrDone)
		d.scanStderr(pipe, ready)
	}()
	select {
	case addrs, ok := <-ready:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("atomd exited before serving: %s", d.stderr.String())
		}
		d.httpAddr, d.ingestAddr, d.queryAddr = addrs[0], addrs[1], addrs[2]
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, errors.New("atomd did not announce its ports within 120s")
	}
	qc, err := atomd.DialQuery(d.queryAddr)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("dial atomd query port: %w", err)
	}
	_, _, _, err = qc.Epoch()
	d.ready = time.Now()
	d.boot = d.ready.Sub(start)
	qc.Close()
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("atomd epoch: %w", err)
	}
	return d, nil
}

// scanStderr reads the daemon's stderr to EOF, sending the HTTP, ingest
// and query addresses once all three are announced (or closing ready
// if the stream ends first).
func (d *daemon) scanStderr(r io.Reader, ready chan<- [3]string) {
	const announce = ": observability on http://"
	const ports = ": ingest on "
	var addrs [3]string
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if i := strings.Index(line, announce); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len(announce):], "/")
				addrs[0] = addr
			}
			if i := strings.Index(line, ports); i >= 0 {
				addrs[1], addrs[2], _ = strings.Cut(line[i+len(ports):], ", binary queries on ")
			}
			if addrs[0] != "" && addrs[1] != "" && addrs[2] != "" {
				ready <- addrs
				sent = true
			}
		}
		d.stderr.WriteString(line)
		d.stderr.WriteByte('\n')
	}
	io.Copy(io.Discard, r)
	if !sent {
		close(ready)
	}
}

// peakRSSMB reads VmHWM — the resident-set high-water mark — of a
// process from /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so the next peakRSSMB("self") covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// signalGrace is how long after boot stop waits before signalling:
// atomd announces its ports just before it installs its SIGTERM
// handler, and a signal in between kills it instead of draining it.
const signalGrace = 100 * time.Millisecond

// stop reads the daemon's peak RSS, then SIGTERMs it and waits for the
// drain and exit. A daemon that does not exit within 60s is killed and
// reported as an error.
func (d *daemon) stop() (rssMB float64, err error) {
	time.Sleep(signalGrace - time.Since(d.ready))
	rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr != nil && err == nil {
		err = serr
	}
	done := make(chan error, 1)
	go func() {
		<-d.stderrDone
		done <- d.cmd.Wait()
	}()
	select {
	case werr := <-done:
		if werr != nil && err == nil {
			err = fmt.Errorf("atomd exit: %w: %s", werr, d.stderr.String())
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		if err == nil {
			err = errors.New("atomd did not drain within 60s of SIGTERM")
		}
	}
	return rssMB, err
}

// kill ends a daemon that failed to start properly and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.stderrDone
	d.cmd.Wait()
}
