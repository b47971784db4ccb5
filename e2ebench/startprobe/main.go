// Command startprobe does nothing. The benchmark times how long the host
// takes to start it, next to each set-up process, and scales set-up time
// by that: it is a Go program like the benchmark, but runs no code of the
// repository, so a change to the repository cannot move it.
package main

func main() {}
