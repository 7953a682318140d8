package main

// The host record every results file carries: numbers are only
// comparable between runs whose records agree.

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// host describes the machine and build a set of runs was made on.
type host struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	BuildFlags []string `json:"build_flags"`
	DaemonArgs []string `json:"daemon_flags"`
	// TmpFS is the filesystem type under the daemon's directories: fsync
	// cost is this sandbox's, not a device's.
	TmpFS string `json:"tmp_fs"`
	// LowParallelism flags runs made on fewer than 2 processors, where the
	// Workers 2 and two-client numbers cannot show parallelism.
	LowParallelism bool `json:"low_parallelism,omitempty"`
}

// fsNames maps the statfs magic numbers a sandbox is likely to show.
var fsNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func hostRecord(root, tmpDir string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		BuildFlags: buildFlags,
		DaemonArgs: daemonFlags,
		TmpFS:      "unknown",
	}
	h.LowParallelism = h.NProc < 2
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The driver's checkouts are not git repositories; the commit is then
	// simply unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(tmpDir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.TmpFS = name
		}
	}
	return h
}
