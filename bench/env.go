package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// envStamp is the context every number is printed with (ROADMAP item 1:
// no number without its context).
type envStamp struct {
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	WALFS      string `json:"wal_fs"`
}

func stampEnv(scratch string) envStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envStamp{
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		WALFS:      fsType(scratch),
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("go=%s commit=%s nproc=%d GOMAXPROCS=%d GOGC=%s wal_fs=%s",
		e.GoVersion, e.Commit, e.NProc, e.GOMAXPROCS, e.GOGC, e.WALFS)
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (the acceptance driver runs from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
